"""Empirical decay analysis: rate fits, theorem envelopes, Lyapunov monotonicity.

Envelope checks are pointwise at the trajectory samples; with the integrator's
dense output (hundreds of points) inter-sample violations are implausible at
the smoothness of these flows.  Empirical rates can legitimately exceed the
certified ones (the guarantees are one-sided), so only r_hat >= r - 0.05 is
asserted.  Artifacts go through ``integrate``'s writer and column list.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from . import integrate
from .certificates import RateCertificate, lemma_bound
from .integrate import MetricSeries

UNDERFLOW_FLOOR = 1e-300
ENVELOPE_TOL_REL = 1e-6  # a sample passes when metric <= envelope*(1 + rel) + abs
ENVELOPE_TOL_ABS = 1e-8
TAIL_FRACTION = 0.25     # the trailing share of the samples that fit_rate fits
CHAIN_SLACK = 1e-8       # value_chain slack per unit of 1 + |lhs| + |rhs|
DRIFT_SCALE = 1e-6       # Lyapunov drift allowed per unit time and unit of 1 + |L(0)|


class RateFitError(ValueError):
    """Not enough positive tail samples to fit a decay rate."""


def fit_rate(t, y) -> float:
    """Least-squares decay exponent of y over the trailing window.

    Fits -log(y) = r*t + c on the last ``TAIL_FRACTION`` of the samples and
    returns the slope r.  Needs at least 10 samples above the underflow floor
    in the window.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be 1-D arrays of equal length")
    n = t.size
    k = max(int(math.ceil(TAIL_FRACTION * n)), 2)
    t_tail, y_tail = t[n - k:], y[n - k:]
    mask = y_tail > UNDERFLOW_FLOOR
    if int(mask.sum()) < 10:
        raise RateFitError(
            "only %d positive samples in the tail window (need 10); "
            "the metric underflowed, shorten t_end" % int(mask.sum()))
    slope = np.polyfit(t_tail[mask], -np.log(y_tail[mask]), 1)[0]
    return float(slope)


def build_envelope(cert: RateCertificate, anchor: float,
                   m: Optional[float] = None) -> Callable:
    """Closed-form envelope of the certificate's guarantee, anchored at t=0.

    ``anchor`` is the initial value of the metric the certificate bounds:
    h0 = ||x0 - x*||^2 (fb1, fb2) or the value gap (grad1, grad2).

    first order (no transient exponent): anchor * exp(-r*t) with r the
        certified decay exponent
    second order: certificates.lemma_bound(gamma_lower, anchor, m, t) with the
        certified gamma_lower and m from the decay lemma's M = L(0)
        (``certificates.lyapunov``): m = 2*M for fb2, whose lemma h is
        halved, and m = M for grad2

    A missing m and an invalid lemma bound raise here, not at the first call.
    The returned callable accepts scalars or arrays.
    """
    if cert.transient_exponent is None:
        rate = cert.decay_exponent
        return lambda t: anchor * np.exp(-rate * np.asarray(t, dtype=float))
    if m is None:
        raise ValueError("%s envelope needs m" % cert.system)
    gl, a, m = cert.derived["gamma_lower"], float(anchor), float(m)
    lemma_bound(gl, a, m, 0.0)  # raise now on an invalid bound
    return lambda t: lemma_bound(gl, a, m, t)


@dataclasses.dataclass(frozen=True)
class RateReport:
    """Outcome of an envelope check plus the fitted-vs-certified rate comparison."""

    which: str
    n_samples: int
    violating_samples: int
    max_ratio: float
    worst_excess: float
    fitted_exponent: Optional[float]
    theoretical_exponent: Optional[float]
    rate_ok: bool
    passed: bool
    tol_abs: float
    tol_rel: float


def verify_envelope(metrics: MetricSeries, which: str, envelope: Callable,
                    rate: Optional[float] = None) -> RateReport:
    """Check metric(t) <= envelope(t)*(1 + ENVELOPE_TOL_REL) + ENVELOPE_TOL_ABS per sample.

    ``which`` selects the metric ('h' or 'gap').  When ``rate`` (the certified
    decay exponent) is given, the fitted tail rate must satisfy
    r_hat >= rate - 0.05; an underflowed tail skips the comparison.  Failures
    are report contents, never exceptions.
    """
    if which not in ("h", "gap"):
        raise ValueError("which must be 'h' or 'gap', got %r" % which)
    values = getattr(metrics, which)
    if values is None:   # h is always present
        raise ValueError("metrics carry no value gap")
    env = np.asarray(envelope(metrics.t), dtype=float)
    allowed = env * (1.0 + ENVELOPE_TOL_REL) + ENVELOPE_TOL_ABS
    excess = values - allowed
    violating = int(np.sum(excess > 0.0))
    pos = env > UNDERFLOW_FLOOR
    max_ratio = float(np.max(values[pos] / env[pos])) if np.any(pos) else 0.0
    fitted = None
    try:
        fitted = fit_rate(metrics.t, values)
    except RateFitError:
        pass
    rate_ok = True
    if rate is not None and fitted is not None:
        rate_ok = fitted >= rate - 0.05
    return RateReport(
        which=which,
        n_samples=int(values.size),
        violating_samples=violating,
        max_ratio=max_ratio,
        worst_excess=float(np.max(excess)),
        fitted_exponent=fitted,
        theoretical_exponent=rate,
        rate_ok=rate_ok,
        passed=(violating == 0 and rate_ok),
        tol_abs=ENVELOPE_TOL_ABS,
        tol_rel=ENVELOPE_TOL_REL,
    )


@dataclasses.dataclass(frozen=True)
class ChainReport:
    """Per-inequality violation counts for the value/distance sandwich."""

    n_samples: int
    results: tuple  # (name, violating count, worst excess)
    passed: bool


def verify_value_chain(metrics: MetricSeries, rho: float, beta: float) -> ChainReport:
    """``value_chain`` at every sample of a trajectory's metrics."""
    if metrics.gap is None or metrics.gradnorm is None:
        raise ValueError("chain check needs both gap and gradnorm")
    return value_chain(metrics.h, metrics.gap, metrics.gradnorm, rho, beta)


def value_chain(h, gap, gradnorm, rho: float, beta: float) -> ChainReport:
    """Check the strong-convexity / descent-lemma sandwich at every point:

    (rho/2)*h <= gap,  gap <= h/(2*beta),  rho*sqrt(h) <= gradnorm,

    each with additive slack CHAIN_SLACK*(1 + |lhs| + |rhs|), on arrays over
    the same points.
    """
    pairs = [
        ("(rho/2)*h <= gap", 0.5 * rho * h, gap),
        ("gap <= h/(2*beta)", gap, h / (2.0 * beta)),
        ("rho*sqrt(h) <= gradnorm", rho * np.sqrt(h), gradnorm),
    ]
    results = []
    for name, lhs, rhs in pairs:
        slack = CHAIN_SLACK * (1.0 + np.abs(lhs) + np.abs(rhs))
        excess = lhs - rhs - slack
        results.append((name, int(np.sum(excess > 0.0)), float(np.max(excess))))
    return ChainReport(
        n_samples=int(h.size),
        results=tuple(results),
        passed=all(r[1] == 0 for r in results),
    )


@dataclasses.dataclass(frozen=True)
class LyapunovReport:
    """Drift statistics of L(t) = e^t*(h' + (gamma(t)-1)*h + b2(t)*u) along samples:
    ``initial`` is L(0), the others are of e^-shift L."""

    n_samples: int
    initial: float
    final: float
    max_drift_rate: float
    drift_tolerance: float
    shift: float
    passed: bool


def verify_lyapunov(t, lyap, shift: float = 0.0, initial=None) -> LyapunovReport:
    """Check that the Lyapunov quantity L, sampled as ``lyap`` = e^-shift L at the times
    ``t`` (``certificates.lyapunov``), is nonincreasing: up to a drift of
    DRIFT_SCALE*(1 + |L(0)|) per unit time, scaled by the same e^-shift, so the
    decision is L's own.  ``initial`` is L(0), by default lyap[0] (shift 0)."""
    initial = float(lyap[0]) if initial is None else float(initial)
    tol = DRIFT_SCALE * (1.0 + abs(initial)) * math.exp(-shift)
    max_rate = float(np.max(np.diff(lyap) / np.diff(t))) if t.size > 1 else 0.0
    return LyapunovReport(
        n_samples=int(t.size),
        initial=initial,
        final=float(lyap[-1]),
        max_drift_rate=max_rate,
        drift_tolerance=tol,
        shift=float(shift),
        passed=max_rate <= tol,
    )


def write_envelope_csv(path, t, envelope: Callable) -> None:
    """Write ``t,envelope`` rows: the envelope tabulated at the given times,
    which ``verify`` takes from the trajectory's even grid, the rows of its
    trajectory.csv."""
    t = np.asarray(t, dtype=float)
    integrate.write_table(path, ["t", "envelope"], np.column_stack([t, envelope(t)]))


def emit_plot_script(path, metrics_csv: str, dim: int, which: str = "h",
                     envelope_csv: Optional[str] = None) -> None:
    """Write a gnuplot script plotting metric ``which`` (log scale) vs time."""
    if which not in integrate.METRIC_COLUMNS:
        raise KeyError(which)
    col = integrate.trajectory_columns(dim).index(which) + 1  # gnuplot counts from 1
    lines = [
        "# gnuplot script: decay metric vs certified envelope",
        "set datafile separator comma",
        "set logscale y",
        "set xlabel 't'",
        "set ylabel '%s(t)'" % which,
        "set grid",
    ]
    plot = "plot '%s' skip 1 using 1:%d with lines title '%s'" % (metrics_csv, col, which)
    if envelope_csv is not None:
        plot += ", '%s' skip 1 using 1:2 with lines dashtype 2 title 'envelope'" % envelope_csv
    lines.append(plot)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
