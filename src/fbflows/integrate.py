"""Numerical integration of the flows with dense trajectory recording.

The one integrator is the Dormand-Prince 5(4) embedded pair with PI
step-size control and a 4th-order dense interpolant, so trajectories can be
sampled on an even grid much finer than the accepted steps, with the local
error of every step held below the tolerances of ``Adaptive``.  Second-order
flows are integrated by state augmentation (x, v).  The module also owns the
artifact format: ``write_csv`` (floats as ``FLOAT``, which round-trips),
``write_json``, ``trajectory_columns``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional

import numpy as np

from .flows import FlowRHS
from .operators import positive, row_blocks


class IntegrationError(RuntimeError):
    """Integration aborted; ``diagnostics`` holds where and why."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclasses.dataclass(frozen=True)
class Adaptive:
    """Embedded-pair control: local error below abs_tol + rel_tol*|y|."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12


N_DENSE = 500  # default count of the even grid of interpolated samples


@dataclasses.dataclass
class Trajectory:
    """Sampled solution: times (strictly increasing), states, velocities.

    For first-order flows ``v`` holds the rhs re-evaluated at the samples (the
    exact velocity), not a finite difference: one call per block of samples,
    with the sample times as a column, in the row blocks of
    ``operators.row_blocks``.  Sample 0 is the initial data, untouched by
    interpolation.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    order: int
    meta: dict


@dataclasses.dataclass
class MetricSeries:
    """Decay metrics along a trajectory, in the un-halved convention.

    h(t) = ||x - x*||^2, u(t) = ||dx/dt||^2, gap(t) = F(x) - F(x*) when a
    value oracle exists, gradnorm(t) = ||grad g(x)|| when g is smooth.
    """

    t: np.ndarray
    h: np.ndarray
    u: np.ndarray
    gap: Optional[np.ndarray]
    gradnorm: Optional[np.ndarray]
    x_star: np.ndarray


# Dormand-Prince 5(4) tableau.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# 5th-order weights coincide with the last tableau row (first-same-as-last).
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Dense-output coefficients of the 4th-order interpolant.
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)
# The tableau rows as (k, 1) weight columns: stage i combines the stages K[:i],
# the error estimate and the dense term all seven.
_A_W = (None,) + tuple(np.array(row)[:, None] for row in _A[1:])
_E_W = np.array(_E)[:, None]
_D_W = np.array(_D)[:, None]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_BETA = 0.04
_EXPO = 0.2 - 0.75 * _PI_BETA


def _combine(K, w):
    """sum_j w[j] * K[j] over the first len(w) stages.

    The axis-0 reduce adds the rows left to right onto +0.0, as a sequential
    ``sum`` does (``K.T @ w`` would let BLAS choose the order).  Starting from
    +0.0 the partial sum is never -0.0, so the zero entries of a tableau row
    add nothing, bit for bit, while the stages are finite.
    """
    return np.add.reduce(w * K[:w.shape[0]], axis=0, initial=0.0)


def _rms(v) -> float:
    return math.sqrt(np.add.reduce(np.square(v)) / v.size)


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol):
    sc = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / sc), _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_end - t0)


def _dopri5(fun, t0, y0, t_end, rtol, atol, max_steps=1_000_000):
    """Returns (steps, t, y, stats).

    ``steps`` holds one list per field of the accepted steps: the left end, the
    width h and the five dense-output coefficients c1..c5.
    """
    span = t_end - t0
    t = t0
    y = np.array(y0, dtype=float)
    K = np.empty((7, y.size))  # the stages of the current step, one per row
    K[0] = fun(t, y)
    if not np.all(np.isfinite(K[0])):
        raise IntegrationError("non-finite rhs at the initial point",
                               {"t": t, "y": y.tolist()})
    h = _initial_step(fun, t0, y, K[0], t_end, rtol, atol)
    n_rhs = 2  # initial-step estimator
    n_acc = n_rej = 0
    facold = 1e-4
    rejected = False
    steps = tuple([] for _ in range(7))

    while t < t_end - 1e-14 * max(span, 1.0):
        if n_acc + n_rej >= max_steps:
            raise IntegrationError(
                "step budget exhausted",
                {"t": t, "accepted": n_acc, "rejected": n_rej})
        if h < 1e-14 * max(span, 1.0):
            raise IntegrationError(
                "step size underflow",
                {"t": t, "h": h, "accepted": n_acc, "rejected": n_rej})
        h = min(h, t_end - t)

        for i in range(1, 7):
            yi = y + h * _combine(K, _A_W[i])
            K[i] = fun(t + _C[i] * h, yi)
        n_rhs += 6
        y_new = yi  # stage 7 argument is the 5th-order solution (FSAL)
        err_vec = h * _combine(K, _E_W)
        if not (np.isfinite(y_new).all() and np.isfinite(err_vec).all()):
            raise IntegrationError(
                "non-finite state during integration",
                {"t": t, "h": h, "accepted": n_acc, "rejected": n_rej})
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(err_vec / sc)

        fac11 = err ** _EXPO if err > 0.0 else 1e-10
        if err <= 1.0:
            # accept; PI growth limited by the previous error
            facold_term = facold ** _PI_BETA
            fac = fac11 / facold_term
            fac = max(1.0 / _MAX_FACTOR, min(1.0 / _MIN_FACTOR, fac / _SAFETY))
            h_new = h / fac
            facold = max(err, 1e-4)

            ydiff = y_new - y
            bspl = h * K[0] - ydiff
            fields = (t, h, y, ydiff, bspl, ydiff - h * K[6] - bspl,
                      h * _combine(K, _D_W))
            for column, value in zip(steps, fields):
                column.append(value)
            t = t + h
            y = y_new
            K[0] = K[6]
            n_acc += 1
            if rejected:
                h_new = min(h_new, h)
            rejected = False
            h = h_new
        else:
            h = h / min(1.0 / _MIN_FACTOR, fac11 / _SAFETY)
            rejected = True
            n_rej += 1

    stats = {"accepted": n_acc, "rejected": n_rej, "rhs_evaluations": n_rhs}
    return steps, t, y, stats


def _dense_output(steps, t_fin, y_fin, y0, t_end, n_dense):
    """Sample times (every step end plus an even grid of n_dense) and the states there.

    One ``searchsorted`` places every sample in its step, and the 4th-order
    interpolant c1 + th*(c2 + (1-th)*(c3 + th*(c4 + (1-th)*c5))) is evaluated
    once over all samples, from the inside out, gathering one coefficient at a
    time.  Sample 0 is y0 and samples from t_fin on are y_fin, untouched.
    """
    lefts, widths, *coeffs = steps
    lefts = np.array(lefts, dtype=float)
    ts = np.concatenate([lefts, [t_fin], np.linspace(0.0, t_end, n_dense)])
    ts.sort(kind="stable")
    keep = np.ones(ts.size, dtype=bool)
    keep[1:] = np.diff(ts) > 1e-12 * max(t_end, 1.0)
    ts = ts[keep]
    ys = np.empty((ts.size, y0.size))
    ys[0] = y0
    n_in = int(np.searchsorted(ts, t_fin))
    ys[n_in:] = y_fin
    if not lefts.size:  # t_end below the step loop's resolution: no step taken
        return ts, ys
    tau = ts[1:n_in]  # inside (0, t_fin), so every tau has a step to its left
    idx = np.searchsorted(lefts, tau, side="right") - 1
    th = ((tau - lefts[idx]) / np.array(widths, dtype=float)[idx])[:, None]
    one_minus = 1.0 - th
    out = ys[1:n_in]
    np.take(np.array(coeffs[4]), idx, axis=0, out=out)
    for k, factor in ((3, one_minus), (2, th), (1, one_minus), (0, th)):
        out *= factor
        out += np.array(coeffs[k])[idx]
    return ts, ys


def integrate(flow: FlowRHS, x0, v0=None, t_end: float = 10.0,
              control: Adaptive = Adaptive(), n_dense: int = N_DENSE) -> Trajectory:
    """Integrate a flow over [0, t_end] with DOPRI5; returns a densely sampled Trajectory.

    ``control`` holds the tolerances of the local error control.
    The samples are every accepted step end plus ``n_dense`` evenly spaced
    interpolated points over [0, t_end], n_dense an integer >= 2; t_end and
    the tolerances obey ``operators.positive``.  Second-order flows need ``v0``.
    ``meta`` holds the solver name, the tolerances and the accepted, rejected
    and rhs-evaluation counts.
    """
    t_end = positive(t_end, "t_end")
    rtol = positive(control.rel_tol, "rel_tol")
    atol = positive(control.abs_tol, "abs_tol")
    if not (isinstance(n_dense, (int, np.integer)) and n_dense >= 2):
        raise ValueError("n_dense must be an integer >= 2, got %r" % (n_dense,))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.size
    if flow.order == 2:
        if v0 is None:
            raise ValueError("second-order flow needs initial velocity v0")
        v0 = np.atleast_1d(np.asarray(v0, dtype=float))
        y0 = np.concatenate([x0, v0])

        def fun(t, y):
            return np.concatenate([y[dim:],
                                   np.asarray(flow.rhs(t, y[:dim], y[dim:]), dtype=float)])
    elif flow.order == 1:
        if v0 is not None:
            raise ValueError("first-order flow takes no v0")
        y0 = x0.copy()

        def fun(t, y):
            return np.asarray(flow.rhs(t, y), dtype=float)
    else:
        raise ValueError("unsupported flow order %r" % flow.order)

    steps, t_fin, y_fin, stats = _dopri5(fun, 0.0, y0, t_end, rtol, atol)
    ts, ys = _dense_output(steps, t_fin, y_fin, y0, t_end, n_dense)
    del steps  # the step data is the largest array set; free it before v
    meta = {"solver": "dopri5(4)-pi", "rel_tol": rtol, "abs_tol": atol, **stats}

    if flow.order == 2:
        x = ys[:, :dim]
        v = ys[:, dim:]
    else:
        x = ys
        v = np.empty_like(x)
        for rows in row_blocks(ts.size, dim):
            v[rows] = flow.rhs(ts[rows, None], x[rows])
    return Trajectory(t=ts, x=x, v=v, order=flow.order, meta=meta)


def record_metrics(traj: Trajectory, problem) -> MetricSeries:
    """Compute h, u, gap and gradnorm along a trajectory against problem ground truth.

    Values and gradients are taken one call per row block of the samples.
    """
    x_star = getattr(problem, "x_star", None)
    if x_star is None:
        raise ValueError("problem has no ground-truth solution x_star")
    x_star = np.asarray(x_star, dtype=float)
    err = traj.x - x_star[None, :]
    h = np.einsum("ij,ij->i", err, err)
    u = np.einsum("ij,ij->i", traj.v, traj.v)

    f = getattr(problem, "f", None)
    g = getattr(problem, "g", None)
    blocks = row_blocks(*traj.x.shape)
    gap = None
    if f is not None or g is not None:
        def total(x):
            s = 0.0
            if f is not None:
                s = s + f.value(x)
            if g is not None:
                s = s + g.value(x)
            return s

        base = float(total(x_star))
        gap = np.empty(traj.t.size)
        for rows in blocks:
            gap[rows] = total(traj.x[rows]) - base
        if np.min(gap) < -1e-10:
            raise ValueError(
                "value gap fell below the -1e-10 floor (min %g); x_star is suspect"
                % float(np.min(gap)))
    gradnorm = None
    if g is not None and g.gradient is not None:
        gradnorm = np.empty(traj.t.size)
        for rows in blocks:
            grad = g.gradient(traj.x[rows])
            gradnorm[rows] = np.sqrt(np.vecdot(grad, grad))  # bitwise np.linalg.norm
    return MetricSeries(t=traj.t, h=h, u=u, gap=gap, gradnorm=gradnorm, x_star=x_star)


FLOAT = "%.17g"
METRIC_COLUMNS = ("h", "u", "gap", "gradnorm")  # the MetricSeries fields, in order


def trajectory_columns(dim: int) -> list:
    """Column names of a trajectory table: t, x_i..., v_i..., then METRIC_COLUMNS."""
    return (["t"] + ["x_%d" % i for i in range(dim)] + ["v_%d" % i for i in range(dim)]
            + list(METRIC_COLUMNS))


def write_csv(path, header, row_format: str, rows) -> None:
    """Write the header line, then ``row_format % row`` for each row tuple."""
    line = row_format + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_json(path, doc) -> None:
    """Write a JSON artifact, dataclasses as dicts, with sorted keys and indent 2."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=dataclasses.asdict)
        fh.write("\n")


def to_csv(traj: Trajectory, metrics: Optional[MetricSeries], path) -> None:
    """Write the ``trajectory_columns`` table; an absent metric is written as nan."""
    header = trajectory_columns(traj.x.shape[1])
    absent = [math.nan] * traj.t.size  # FLOAT formats nan as "nan"
    series = [getattr(metrics, name, None) for name in METRIC_COLUMNS]
    rows = zip(traj.t.tolist(), map(np.ndarray.tolist, traj.x),
               map(np.ndarray.tolist, traj.v),
               *[absent if s is None else s.tolist() for s in series])
    write_csv(path, header, ",".join([FLOAT] * len(header)),
              ((t, *x, *v, *m) for t, x, v, *m in rows))
