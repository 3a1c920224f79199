"""Feasibility certificates for the flow parameters and their decay constants.

Each ``certify_*`` function checks the full hypothesis set of one convergence
guarantee and returns a RateCertificate holding the inputs, the derived
constants, and every inequality that was verified (with the numbers that were
compared, so the certificate can be re-checked later).  Violations raise
CertificateError naming each failed inequality; nothing is clamped silently.

Time-dependent conditions of the second-order systems are verified on the
samples of ``Schedule.check``: an even grid of ``flows.GRID_POINTS`` (2000)
points over [0, t_grid_end], slack 1e-9.  The certificate records t_grid_end
and n_grid in its inputs; it makes no claim beyond that interval.  A constant
coefficient is checked once at its value, which every grid point would
repeat, so the recorded numbers, t_grid_end and n_grid are those of the full
grid.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .flows import GRID_POINTS, Schedule

GRID_SLACK = 1e-9
ROUND_SLACK = 1e-12
GRID_END = 50.0  # the default t_grid_end of the second-order certificates


class CertificateError(ValueError):
    """One or more hypothesis inequalities failed; ``failures`` names them."""

    def __init__(self, failures: Sequence[str]):
        self.failures = list(failures)
        super().__init__("hypothesis check failed: " + "; ".join(self.failures))


@dataclasses.dataclass(frozen=True)
class Check:
    """A recorded inequality lhs < rhs (strict) or lhs <= rhs (with slack)."""

    name: str
    lhs: float
    rhs: float
    strict: bool = False
    slack: float = 0.0

    @property
    def ok(self) -> bool:
        if self.strict:
            return self.lhs < self.rhs
        return self.lhs <= self.rhs + self.slack


def _rounding(lhs: float, rhs: float) -> float:
    return ROUND_SLACK * (1.0 + abs(lhs) + abs(rhs))


def _grid_slack(lhs: float, rhs: float) -> float:
    return GRID_SLACK * (1.0 + abs(lhs) + abs(rhs))


def _worst(name: str, lhs, rhs) -> Check:
    """Record the grid point where lhs - rhs is largest (the tightest case).

    Two floats (constant coefficients) are compared directly; an array side
    is broadcast against the other before the argmax.
    """
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        k = int(np.argmax(lhs - rhs))
        lhs, rhs = lhs[k], rhs[k]
    lhs, rhs = float(lhs), float(rhs)
    return Check(name=name, lhs=lhs, rhs=rhs, slack=_grid_slack(lhs, rhs))


def _steps(v):
    # a constant's one step v - v: the 0.0 (nan for nan) np.diff gives on its samples
    return np.diff(v) if isinstance(v, np.ndarray) else v - v


def _monotonicity(lam, gam) -> list:
    """The grid checks that gamma and gamma/lambda are nonincreasing."""
    return [_worst("gamma(t) nonincreasing", _steps(gam), 0.0),
            _worst("gamma(t)/lambda(t) nonincreasing", _steps(gam / lam), 0.0)]


@dataclasses.dataclass(frozen=True)
class RateCertificate:
    """Validated hypotheses plus the decay constants they imply.

    ``decay_exponent`` is r in the final envelope factor exp(-r*t);
    ``transient_exponent`` is the faster initial exponent where the guarantee
    has one (second-order systems).  ``checks`` records every verified
    inequality with the compared numbers.
    """

    system: str
    inputs: dict
    derived: dict
    decay_exponent: float
    transient_exponent: Optional[float]
    checks: tuple

    def recheck(self) -> bool:
        """Re-evaluate every stored inequality from the stored numbers."""
        return all(c.ok for c in self.checks)


def _finish(system, inputs, derived, r, transient, checks, extra_failures=()):
    failed = [c.name + " violated" for c in checks if not c.ok]
    failed += list(extra_failures)
    if failed:
        raise CertificateError(failed)
    return RateCertificate(
        system=system,
        inputs=inputs,
        derived=derived,
        decay_exponent=r,
        transient_exponent=transient,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# first-order systems


def certify_fb1(rho: float, beta: float, lambda_lower: float, lambda_upper: float,
                alpha: float, eta: float) -> RateCertificate:
    """Certify the first-order forward-backward flow and derive its rate C.

    Requires alpha < 2*rho*beta^2*lambda_lower (strict) and
    1/beta + lambda_upper/(2*alpha) <= rho + 1/eta.  On success
    C = (2*rho*lambda_lower - alpha/beta^2) / (2*rho + 1/eta) and the distance
    envelope is ||x0 - x*||^2 * exp(-C*t).
    """
    for name, v in [("rho", rho), ("beta", beta), ("lambda_lower", lambda_lower),
                    ("lambda_upper", lambda_upper), ("alpha", alpha), ("eta", eta)]:
        if not (float(v) > 0.0) or not math.isfinite(float(v)):
            raise ValueError("%s must be positive and finite, got %r" % (name, v))
    if lambda_lower > lambda_upper:
        raise ValueError("need lambda_lower <= lambda_upper")

    lhs2 = 1.0 / beta + lambda_upper / (2.0 * alpha)
    rhs2 = rho + 1.0 / eta
    checks = [
        Check("alpha < 2*rho*beta^2*lambda_lower",
              lhs=alpha, rhs=2.0 * rho * beta * beta * lambda_lower, strict=True),
        Check("1/beta + lambda_upper/(2*alpha) <= rho + 1/eta",
              lhs=lhs2, rhs=rhs2, slack=_rounding(lhs2, rhs2)),
    ]
    c_rate = (2.0 * rho * lambda_lower - alpha / beta ** 2) / (2.0 * rho + 1.0 / eta)
    inputs = {"rho": rho, "beta": beta, "lambda_lower": lambda_lower,
              "lambda_upper": lambda_upper, "alpha": alpha, "eta": eta}
    return _finish("fb1", inputs, {"C": c_rate}, r=c_rate, transient=None, checks=checks)


def certify_grad1(rho: float, beta: float, lambda_lower: float,
                  alpha: float) -> RateCertificate:
    """Certify the first-order gradient flow; the value gap decays like exp(-alpha*t).

    Requires alpha <= 2*lambda_lower*beta*rho^2.  The decay applies to
    g(x(t)) - g(x*); through (rho/2)*||x - x*||^2 <= gap it also bounds the
    squared distance.
    """
    for name, v in [("rho", rho), ("beta", beta), ("lambda_lower", lambda_lower),
                    ("alpha", alpha)]:
        if not (float(v) > 0.0) or not math.isfinite(float(v)):
            raise ValueError("%s must be positive and finite, got %r" % (name, v))
    rhs = 2.0 * lambda_lower * beta * rho * rho
    checks = [
        Check("alpha <= 2*lambda_lower*beta*rho^2",
              lhs=alpha, rhs=rhs, slack=_rounding(alpha, rhs)),
    ]
    inputs = {"rho": rho, "beta": beta, "lambda_lower": lambda_lower, "alpha": alpha}
    return _finish("grad1", inputs, {}, r=alpha, transient=None, checks=checks)


# ---------------------------------------------------------------------------
# second-order forward-backward


def _fb2_constants(rho, beta, alpha, delta):
    """Shared algebra: S, eta, K, and theta(t)/lambda(t)."""
    big_s = 1.0 / beta + 1.0 / (4.0 * rho * beta * beta * alpha)
    inv_eta = big_s / delta - rho
    k_slope = 2.0 * rho * (1.0 - alpha) / (rho + big_s / delta)
    theta_coeff = (delta / (1.0 - delta)) * (rho + big_s / delta) / big_s
    return big_s, inv_eta, k_slope, theta_coeff


def _check_unit_interval(name, v):
    v = float(v)
    if not (0.0 < v < 1.0):
        raise ValueError("%s must lie in (0, 1), got %r" % (name, v))
    return v


def certify_fb2(rho: float, beta: float, alpha: float, delta: float,
                sched: Schedule, t_grid_end: float = GRID_END) -> RateCertificate:
    """Certify the damped second-order forward-backward flow.

    Derives eta from 1/eta = (1/beta + 1/(4*rho*beta^2*alpha))/delta - rho,
    then checks on a grid that theta(t) stays below its lambda-quadratic
    bound, that theta at lambda_lower exceeds 2, that gamma(t) lies in
    [(1+sqrt(1+4*theta(t)))/2, 1 + K*lambda(t)], and that gamma and
    gamma/lambda are nonincreasing.  The envelope combines a transient
    exp(-(gamma_lower-1)*t) with a final exp(-t).
    """
    if not (rho > 0.0 and beta > 0.0):
        raise ValueError("rho and beta must be positive")
    alpha = _check_unit_interval("alpha", alpha)
    delta = _check_unit_interval("delta", delta)
    _, lam, gam, _ = sched.check(t_grid_end)

    big_s, inv_eta, k_slope, theta_coeff = _fb2_constants(rho, beta, alpha, delta)
    checks = [
        Check("delta*beta*rho < 1", lhs=delta * beta * rho, rhs=1.0, strict=True),
        Check("1/eta > 0", lhs=0.0, rhs=inv_eta, strict=True),
    ]
    extra = []

    theta_t = theta_coeff * lam
    checks.append(_worst("theta(t) <= K*lambda(t) + K^2*lambda(t)^2",
                         theta_t, k_slope * lam + k_slope ** 2 * (lam * lam)))
    theta_floor = theta_coeff * sched.lambda_lower
    checks.append(Check("theta > 2", lhs=2.0, rhs=theta_floor, strict=True))

    gamma_lower = (1.0 + math.sqrt(max(1.0 + 4.0 * theta_floor, 0.0))) / 2.0
    if gam is None:
        extra.append("gamma(t) missing from schedule")
    else:
        lo = (1.0 + np.sqrt(1.0 + 4.0 * theta_t)) / 2.0
        checks.append(_worst("(1 + sqrt(1 + 4*theta(t)))/2 <= gamma(t)", lo, gam))
        checks.append(_worst("gamma(t) <= 1 + K*lambda(t)", gam, 1.0 + k_slope * lam))
        checks += _monotonicity(lam, gam)

    eta = 1.0 / inv_eta if inv_eta > 0.0 else math.nan
    inputs = {"rho": rho, "beta": beta, "alpha": alpha, "delta": delta,
              "lambda_lower": sched.lambda_lower, "lambda_upper": sched.lambda_upper,
              "t_grid_end": float(t_grid_end), "n_grid": GRID_POINTS}
    derived = {"eta": eta, "S": big_s, "K": k_slope, "theta_coefficient": theta_coeff,
               "theta": theta_floor, "gamma_lower": gamma_lower}
    return _finish("fb2", inputs, derived, r=1.0, transient=gamma_lower - 1.0,
                   checks=checks, extra_failures=extra)


@dataclasses.dataclass(frozen=True)
class SuggestedConstants:
    """A constant parameter choice produced by a suggest_* helper."""

    lam: float
    gamma: float
    eta: Optional[float] = None
    alpha: Optional[float] = None

    def schedule(self) -> Schedule:
        return Schedule.constant(self.lam, gamma=self.gamma, alpha=self.alpha)


def suggest_constants_fb2(rho: float, beta: float, alpha: float,
                          delta: float) -> SuggestedConstants:
    """Pick a feasible constant (lambda, gamma, eta) for the second-order FB flow.

    Takes the smallest lambda satisfying both theta > 2 and the quadratic
    feasibility bound (closed form), inflates it by 1% to leave margin, and
    places gamma at the midpoint of its window.  The result always passes
    certify_fb2.
    """
    if not (rho > 0.0 and beta > 0.0):
        raise ValueError("rho and beta must be positive")
    alpha = _check_unit_interval("alpha", alpha)
    delta = _check_unit_interval("delta", delta)
    if not (delta * beta * rho < 1.0):
        raise CertificateError(["delta*beta*rho < 1 violated"])

    big_s, inv_eta, k_slope, theta_coeff = _fb2_constants(rho, beta, alpha, delta)
    # theta(lam) = theta_coeff*lam <= K*lam + K^2*lam^2 holds for
    # lam >= (theta_coeff - K)/K^2; theta > 2 needs lam > 2/theta_coeff.
    lam_quad = (theta_coeff - k_slope) / k_slope ** 2 if theta_coeff > k_slope else 0.0
    lam = 1.01 * max(lam_quad, 2.0 / theta_coeff)
    lo = (1.0 + math.sqrt(1.0 + 4.0 * theta_coeff * lam)) / 2.0
    hi = 1.0 + k_slope * lam
    if lo > hi:
        raise CertificateError(["gamma window empty at suggested lambda"])
    return SuggestedConstants(lam=lam, gamma=0.5 * (lo + hi), eta=1.0 / inv_eta)


# ---------------------------------------------------------------------------
# second-order gradient flow


def certify_grad2(rho: float, beta: float, sched: Schedule,
                  alpha_bar: Optional[float] = None,
                  t_grid_end: float = GRID_END) -> RateCertificate:
    """Certify the damped second-order gradient flow.

    The relaxation floor alpha(t) is the schedule's ``alpha``.  ``alpha_bar``
    is the constant lower bound with alpha_bar > 1; when it is None, it is the
    value of alpha(t) on the grid if alpha(t) answers with one value (a
    constant), and a ValueError otherwise.  Checks rho*beta <= 1, the alpha
    floor, the lambda and gamma windows on a grid, and the two monotonicity
    conditions.
    """
    if not (rho > 0.0 and beta > 0.0):
        raise ValueError("rho and beta must be positive")
    if sched.alpha is None:
        raise ValueError("no alpha(t) in the schedule")
    _, lam, gam, a_t = sched.check(t_grid_end)
    if alpha_bar is None:
        if np.ndim(a_t) > 0:
            raise ValueError("alpha_bar required when alpha(t) is not constant")
        alpha_bar = a_t
    alpha_bar = float(alpha_bar)

    checks = [
        Check("rho*beta <= 1", lhs=rho * beta, rhs=1.0,
              slack=_rounding(rho * beta, 1.0)),
        Check("alpha_bar > 1", lhs=1.0, rhs=alpha_bar, strict=True),
    ]
    extra = []

    floor = max(alpha_bar, 2.0 / (beta * beta * rho * rho) - 1.0)
    checks.append(_worst("inf alpha(t) >= max(alpha_bar, 2/(beta^2*rho^2) - 1)",
                         floor, a_t))
    checks.append(_worst("alpha(t)/(beta*rho^2) <= lambda(t)",
                         a_t / (beta * rho * rho), lam))
    checks.append(_worst("lambda(t) <= (beta/2)*(alpha(t) + alpha(t)^2)",
                         lam, 0.5 * beta * (a_t + a_t * a_t)))

    gamma_lower = (1.0 + math.sqrt(1.0 + 8.0 * alpha_bar / (beta * beta * rho * rho))) / 2.0
    if gam is None:
        extra.append("gamma(t) missing from schedule")
    else:
        lo = (1.0 + np.sqrt(1.0 + 8.0 * lam / beta)) / 2.0
        checks.append(_worst("(1 + sqrt(1 + 8*lambda(t)/beta))/2 <= gamma(t)", lo, gam))
        checks.append(_worst("gamma(t) <= 1 + alpha(t)", gam, 1.0 + a_t))
        checks += _monotonicity(lam, gam)
    checks.append(Check("gamma_lower > 2", lhs=2.0, rhs=gamma_lower, strict=True))

    inputs = {"rho": rho, "beta": beta, "alpha_bar": alpha_bar,
              "lambda_lower": sched.lambda_lower, "lambda_upper": sched.lambda_upper,
              "t_grid_end": float(t_grid_end), "n_grid": GRID_POINTS}
    derived = {"gamma_lower": gamma_lower, "alpha_floor": floor,
               "alpha_inf": float(np.min(a_t))}
    return _finish("grad2", inputs, derived, r=1.0, transient=gamma_lower - 1.0,
                   checks=checks, extra_failures=extra)


def suggest_constants_grad2(rho: float, beta: float,
                            alpha: Optional[float] = None) -> SuggestedConstants:
    """Pick a feasible constant (alpha, lambda, gamma) for the second-order gradient flow.

    Default alpha is 2/(beta^2*rho^2) - 1 when beta*rho < 1 (the smallest
    admissible floor) and 1.5 when beta*rho = 1.  lambda and gamma sit at the
    midpoints of their windows, which are nonempty for every admissible alpha.
    """
    if not (rho > 0.0 and beta > 0.0):
        raise ValueError("rho and beta must be positive")
    if rho * beta > 1.0 + ROUND_SLACK:
        raise CertificateError(["rho*beta <= 1 violated"])
    if alpha is None:
        bound = 2.0 / (beta * beta * rho * rho) - 1.0
        alpha = bound if bound > 1.0 else 1.5
    alpha = float(alpha)
    if not (alpha > 1.0):
        raise CertificateError(["alpha_bar > 1 violated"])
    lam_lo = alpha / (beta * rho * rho)
    lam_hi = 0.5 * beta * (alpha + alpha * alpha)
    if lam_lo > lam_hi:
        raise CertificateError(["alpha_bar below 2/(beta^2*rho^2) - 1, lambda window empty"])
    lam = 0.5 * (lam_lo + lam_hi)
    gam_lo = (1.0 + math.sqrt(1.0 + 8.0 * lam / beta)) / 2.0
    gam_hi = 1.0 + alpha
    return SuggestedConstants(lam=lam, gamma=0.5 * (gam_lo + gam_hi), alpha=alpha)


# ---------------------------------------------------------------------------
# decay lemma: coefficients, initial constant, closed-form bound


@dataclasses.dataclass(frozen=True)
class LemmaCoefficients:
    """Coefficients b1, b2, b3 and damping gamma feeding the decay lemma.

    The lemma: if h >= 0 obeys h'' + gamma(t) h' <= -b1(t) h - b2(t) h'' ...
    in its integrated form with these coefficients, the Lyapunov quantity
    L(t) = e^t h'(t) + (gamma(t)-1) e^t h(t) + b2(t) e^t u(t) is nonincreasing
    from its initial value M (``lemma_M``), and h obeys ``lemma_bound`` with
    the certificate's gamma_lower.  Each coefficient takes a float t or an
    array of times, and a constant may answer an array with its one value;
    ``analysis.verify_lyapunov`` calls gamma and b2 once on the sample times.
    Exposed for Lyapunov testing.
    """

    b1: Callable[[float], float]
    b2: Callable[[float], float]
    b3: Callable[[float], float]
    gamma: Callable[[float], float]


def fb2_lemma_coefficients(rho: float, beta: float, alpha: float, delta: float,
                           sched: Schedule) -> LemmaCoefficients:
    """Proof-level coefficients of the second-order forward-backward flow.

    With S = 1/beta + 1/(4*rho*beta^2*alpha) and 1/eta = S/delta - rho:
    b1 = lambda(t)*2*rho*(1-alpha)/(2*rho + 1/eta),
    b2 = (gamma/lambda)*(rho + 1/eta - S)/(2*rho + 1/eta),
    b3 = gamma^2*(rho + 1/eta - S)/(lambda*(2*rho + 1/eta)) - 1.
    """
    if sched.gamma is None:
        raise ValueError("need a damping gamma(t)")
    big_s, inv_eta, k_slope, _ = _fb2_constants(rho, beta, alpha, delta)
    numer = rho + inv_eta - big_s      # equals S*(1-delta)/delta
    denom = 2.0 * rho + inv_eta        # equals rho + S/delta
    ratio = numer / denom
    return LemmaCoefficients(
        b1=lambda t: k_slope * sched.lam(t),
        b2=lambda t: (sched.gamma(t) / sched.lam(t)) * ratio,
        b3=lambda t: sched.gamma(t) ** 2 * ratio / sched.lam(t) - 1.0,
        gamma=sched.gamma,
    )


def grad2_lemma_coefficients(beta: float, sched: Schedule) -> LemmaCoefficients:
    """Proof-level coefficients of the second-order gradient flow.

    b1 = alpha(t), b2 = gamma(t)/(2*lambda(t)), b3 = gamma^2/(2*lambda) - 1/beta.
    Here the lemma's h is the value gap, not the squared distance.
    """
    if sched.gamma is None or sched.alpha is None:
        raise ValueError("need gamma(t) and alpha(t)")
    return LemmaCoefficients(
        b1=sched.alpha,
        b2=lambda t: sched.gamma(t) / (2.0 * sched.lam(t)),
        b3=lambda t: sched.gamma(t) ** 2 / (2.0 * sched.lam(t)) - 1.0 / beta,
        gamma=sched.gamma,
    )


def lemma_M(h0: float, hdot0: float, gamma0: float, b2_0: float, u0: float) -> float:
    """Initial Lyapunov value M = hdot0 + (gamma0 - 1)*h0 + b2_0*u0.

    The proof shows the Lyapunov quantity is nonincreasing, so M bounds it for
    all t.  M = 0 for a flow started at rest at the solution.
    """
    if h0 < 0.0 or u0 < 0.0 or b2_0 < 0.0:
        raise ValueError("h0, u0 and b2_0 must be nonnegative")
    if not (gamma0 > 1.0):
        raise ValueError("gamma0 must exceed 1, got %r" % gamma0)
    return hdot0 + (gamma0 - 1.0) * h0 + b2_0 * u0


def lemma_bound(gamma_lower: float, h0: float, m: float, t):
    """The lemma's closed-form bound on h(t), for a scalar or array t >= 0:

        h0*exp(-(gamma_lower-1)*t) + M/(gamma_lower-2)*exp(-t)

    This is the lemma's damping case gamma_lower > 2, the only one a
    certificate reaches: certify_fb2 needs theta > 2 and certify_grad2 checks
    gamma_lower > 2.  Needs h0 = h(0) >= 0 and M >= 0.
    """
    if not (gamma_lower > 2.0):
        raise ValueError("decay bound needs gamma_lower > 2, got %r" % gamma_lower)
    if not (h0 >= 0.0):
        raise ValueError("h0 must be nonnegative, got %r" % h0)
    if not (m >= 0.0):
        raise ValueError("M must be nonnegative, got %r" % m)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    return h0 * np.exp(-(gamma_lower - 1.0) * t) + m / (gamma_lower - 2.0) * np.exp(-t)


def fb2_initial_M(coeffs: LemmaCoefficients, x0, v0, x_star):
    """lemma_M for the forward-backward case: h = (1/2)*||x - x*||^2."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    e0 = x0 - np.asarray(x_star, dtype=float)
    return lemma_M(
        h0=0.5 * float(np.dot(e0, e0)),
        hdot0=float(np.dot(e0, v0)),
        gamma0=coeffs.gamma(0.0),
        b2_0=coeffs.b2(0.0),
        u0=float(np.dot(v0, v0)),
    )


def grad2_initial_M(coeffs: LemmaCoefficients, g, x0, v0, x_star):
    """lemma_M for the gradient case: h = g(x) - g(x*)."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    gap0 = float(g.value(x0)) - float(g.value(np.asarray(x_star, dtype=float)))
    grad0 = np.asarray(g.gradient(x0), dtype=float)
    return lemma_M(
        h0=max(gap0, 0.0),
        hdot0=float(np.dot(grad0, v0)),
        gamma0=coeffs.gamma(0.0),
        b2_0=coeffs.b2(0.0),
        u0=float(np.dot(v0, v0)),
    )
