"""Feasibility certificates for the flow parameters and their decay constants.

Each ``certify_*`` function checks the full hypothesis set of one convergence
guarantee and returns a RateCertificate holding the inputs, the derived
constants, and every inequality that was verified (with the numbers that were
compared, so the certificate can be re-checked later).  Violations raise
CertificateError naming each failed inequality; nothing is clamped silently.
Each system's hypotheses are written once, in ``_table``, as broadcast
expressions, and evaluated in one place, ``_evaluate``: ``certify_grid``
decides them for every cell of a grid at once, a ``certify_*`` call for its
one cell.

Time-dependent conditions of the second-order systems are verified on the
even grid ``flows.time_grid`` of 2000 points over [0, t_grid_end], each
coefficient called once on it, the lambda bounds by ``flows.in_bounds``.
The certificate records t_grid_end and n_grid in its inputs; it makes no
claim beyond that interval.  A constant coefficient is checked once at its
value, which every grid point would repeat, so the recorded numbers,
t_grid_end and n_grid are those of the full grid.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .flows import GRID_POINTS, LEAVES_BOUNDS, Schedule, in_bounds, time_grid
from .operators import NOT_POSITIVE, is_positive, positive

GRID_SLACK = 1e-9
ROUND_SLACK = 1e-12
GRID_END = 50.0  # the default t_grid_end of the second-order certificates


class CertificateError(ValueError):
    """One or more hypothesis inequalities failed; ``failures`` names them."""

    def __init__(self, failures: Sequence[str]):
        self.failures = list(failures)
        super().__init__("hypothesis check failed: " + "; ".join(self.failures))


def _holds(lhs, rhs, slack, strict):
    """The decision of a check, elementwise: lhs < rhs when strict, otherwise
    lhs <= rhs + slack with both sides finite (an infinite side would make a
    relative slack infinite)."""
    if strict:
        return lhs < rhs
    return np.isfinite(lhs) & np.isfinite(rhs) & (lhs <= rhs + slack)


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
        return bool(_holds(self.lhs, self.rhs, self.slack, self.strict))


def _decided(rows):
    """Each row (name, lhs, rhs, relative slack or None for a strict check) as
    (ok, name, lhs, rhs, strict, slack) at the tightest time, the first argmax
    of lhs - rhs along the last (time) axis: numbers, or with a leading cell
    axis one per cell."""
    for name, lhs, rhs, rel in rows:
        if np.ndim(lhs) or np.ndim(rhs):
            lhs, rhs = np.broadcast_arrays(lhs, rhs)
            if lhs.shape[-1] > 1:   # samples over time
                k = np.argmax(lhs - rhs, axis=-1)[..., None]
                lhs, rhs = np.take_along_axis(lhs, k, -1), np.take_along_axis(rhs, k, -1)
            lhs, rhs = lhs[..., 0], rhs[..., 0]
        slack = 0.0 if rel is None else rel * (1.0 + abs(lhs) + abs(rhs))
        yield _holds(lhs, rhs, slack, rel is None), name, lhs, rhs, rel is None, slack


def _steps(v):
    # the steps along time; a constant's one step v - v: the 0.0 (nan for nan)
    # np.diff gives on its samples
    return np.diff(v) if np.ndim(v) and np.shape(v)[-1] > 1 else v - v


def _squared(x):
    # libm pow, the bits of Python's float ** 2; ndarray ** 2 multiplies x*x,
    # which differs in the last bit for about one x in a thousand
    return np.float_power(x, 2.0)


# An input rule is (ok, template, name, value): where ok is False, the input
# is out of range and the failure reads ``_text(template, name, value)``.

def _text(template, name, value) -> str:
    return template if name is None else template % (name, float(value))


def _positive(**named) -> list:
    return [(is_positive(v), NOT_POSITIVE, name, v) for name, v in named.items()]


def _check_inputs(rules) -> None:
    """Raise the first failed input rule of one cell as a ValueError."""
    for ok, *text in rules:
        if not ok:
            raise ValueError(_text(*text))


def _fb2_rules(rho, beta, alpha, delta) -> list:
    return _positive(rho=rho, beta=beta) + [
        ((0.0 < v) & (v < 1.0), "%s must lie in (0, 1), got %r", name, v)
        for name, v in (("alpha", alpha), ("delta", delta))]


def _fb2_constants(rho, beta, alpha, delta):
    """Shared algebra: S, 1/eta, K, and theta(t)/lambda(t)."""
    big_s = 1.0 / beta + 1.0 / (4.0 * rho * beta * beta * alpha)
    inv_eta = big_s / delta - rho
    k_slope = 2.0 * rho * (1.0 - alpha) / (rho + big_s / delta)
    theta_coeff = (delta / (1.0 - delta)) * (rho + big_s / delta) / big_s
    return big_s, inv_eta, k_slope, theta_coeff


def _table(system, rho, beta, v):
    """The input rules, rows, decay exponent and derived constants of system.

    ``v`` holds the inputs by name: the numbers of certify_<system>, and for a
    second-order system the samples of lam, gamma (and grad2's alpha) with
    the lambda bounds.  Numbers are numpy floats, so that a row may divide by
    an out-of-range input, which its rule rejects.  grad2's derived constants
    include alpha_bar, resolved from a constant alpha(t) when it is None.
    """
    if system == "fb1":
        lo, hi, alpha, eta = (v[k] for k in ("lambda_lower", "lambda_upper", "alpha", "eta"))
        rules = (_positive(rho=rho, beta=beta, lambda_lower=lo, lambda_upper=hi,
                           alpha=alpha, eta=eta)
                 + [(lo <= hi, "need lambda_lower <= lambda_upper", None, None)])
        c_rate = (2.0 * rho * lo - alpha / _squared(beta)) / (2.0 * rho + 1.0 / eta)
        return rules, [
            ("alpha < 2*rho*beta^2*lambda_lower", alpha, 2.0 * rho * beta * beta * lo, None),
            ("1/beta + lambda_upper/(2*alpha) <= rho + 1/eta",
             1.0 / beta + hi / (2.0 * alpha), rho + 1.0 / eta, ROUND_SLACK),
        ], c_rate, {"C": c_rate}
    if system == "grad1":
        lo, alpha = v["lambda_lower"], v["alpha"]
        rules = _positive(rho=rho, beta=beta, lambda_lower=lo, alpha=alpha)
        return rules, [("alpha <= 2*lambda_lower*beta*rho^2",
                        alpha, 2.0 * lo * beta * rho * rho, ROUND_SLACK)], alpha, {}

    lam, gam = v["lam"] + 0.0, v["gamma"] + 0.0   # as a Profile answers: -0.0 as +0.0
    bounds = [(in_bounds(lam, v["lambda_lower"], v["lambda_upper"]), LEAVES_BOUNDS, None, None)]
    monotonicity = [("gamma(t) nonincreasing", _steps(gam), 0.0, GRID_SLACK),
                    ("gamma(t)/lambda(t) nonincreasing", _steps(gam / lam), 0.0, GRID_SLACK)]
    if system == "fb2":
        alpha, delta = v["alpha"], v["delta"]
        rules = _fb2_rules(rho, beta, alpha, delta) + bounds
        big_s, inv_eta, k_slope, theta_coeff = _fb2_constants(rho, beta, alpha, delta)
        theta_t = theta_coeff * lam
        theta_floor = theta_coeff * v["lambda_lower"]
        gamma_lower = (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * theta_floor, 0.0))) / 2.0
        return rules, [
            ("delta*beta*rho < 1", delta * beta * rho, 1.0, None),
            ("1/eta > 0", 0.0, inv_eta, None),
            ("theta(t) <= K*lambda(t) + K^2*lambda(t)^2",
             theta_t, k_slope * lam + _squared(k_slope) * (lam * lam), GRID_SLACK),
            ("theta > 2", 2.0, theta_floor, None),
            ("(1 + sqrt(1 + 4*theta(t)))/2 <= gamma(t)",
             (1.0 + np.sqrt(1.0 + 4.0 * theta_t)) / 2.0, gam, GRID_SLACK),
            ("gamma(t) <= 1 + K*lambda(t)", gam, 1.0 + k_slope * lam, GRID_SLACK),
            *monotonicity,
        ], 1.0, {"S": big_s, "K": k_slope, "theta_coefficient": theta_coeff,
                 "theta": theta_floor, "gamma_lower": gamma_lower, "eta": 1.0 / inv_eta}

    a_t, alpha_bar = v["alpha"] + 0.0, v.get("alpha_bar")
    if alpha_bar is None:   # the one value of a constant alpha(t); samples over time vary
        if np.ndim(a_t) == 1:
            raise ValueError("alpha_bar required when alpha(t) is not constant")
        alpha_bar = a_t
    rules = _positive(rho=rho, beta=beta) + bounds + _positive(alpha_bar=alpha_bar)
    floor = np.maximum(alpha_bar, 2.0 / (beta * beta * rho * rho) - 1.0)
    gamma_lower = (1.0 + np.sqrt(1.0 + 8.0 * alpha_bar / (beta * beta * rho * rho))) / 2.0
    return rules, [
        ("rho*beta <= 1", rho * beta, 1.0, ROUND_SLACK),
        ("alpha_bar > 1", 1.0, alpha_bar, None),
        ("inf alpha(t) >= max(alpha_bar, 2/(beta^2*rho^2) - 1)", floor, a_t, GRID_SLACK),
        ("alpha(t)/(beta*rho^2) <= lambda(t)", a_t / (beta * rho * rho), lam, GRID_SLACK),
        ("lambda(t) <= (beta/2)*(alpha(t) + alpha(t)^2)",
         lam, 0.5 * beta * (a_t + a_t * a_t), GRID_SLACK),
        ("(1 + sqrt(1 + 8*lambda(t)/beta))/2 <= gamma(t)",
         (1.0 + np.sqrt(1.0 + 8.0 * lam / beta)) / 2.0, gam, GRID_SLACK),
        ("gamma(t) <= 1 + alpha(t)", gam, 1.0 + a_t, GRID_SLACK),
        *monotonicity,
        ("gamma_lower > 2", 2.0, gamma_lower, None),
    ], 1.0, {"gamma_lower": gamma_lower, "alpha_floor": floor, "alpha_bar": alpha_bar,
             "alpha_inf": np.min(np.atleast_1d(a_t), axis=-1)}


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


def _evaluate(system, rho, beta, cells, t_grid_end):
    """``_table`` evaluated once for every cell of ``cells`` (as certify_grid
    takes them), each callable (a coefficient) called once on the time grid.

    Returns (rules, rows, rate, derived): the input rules (ok, template, name,
    value), the rows decided at their tightest time (``_decided``), the decay
    exponent and the derived constants.  Each number is one per cell along
    its last axis, or one that every cell shares.
    """
    ts = time_grid(float(t_grid_end))

    def value(x):   # a number every cell shares, or one per cell as a column (n, 1)
        if callable(x):
            return x(ts)
        if isinstance(x, np.ndarray):
            return np.reshape(x.astype(float), (-1, 1))
        return x if x is None else np.float64(x)

    with np.errstate(all="ignore"):   # out-of-range cells are decided by their rules
        rules, rows, rate, derived = _table(system, np.float64(rho), np.float64(beta),
                                            {k: value(x) for k, x in cells.items()})
        rows = list(_decided(rows))
    return rules, rows, rate, derived


def _certify_cell(system, inputs, sched=None) -> RateCertificate:
    """certify_<system> on the numbers ``inputs`` and the schedule's fields: its
    certificate, or the error naming its first failed input rule, or every
    failed row.  A derived constant named like an input (grad2's alpha_bar)
    is that input, resolved."""
    if sched is not None and sched.gamma is None:
        raise ValueError("no gamma(t) in the schedule")
    cells = inputs if sched is None else {**vars(sched), **inputs}
    rules, rows, rate, derived = _evaluate(system, inputs["rho"], inputs["beta"], cells,
                                           inputs.get("t_grid_end", GRID_END))
    _check_inputs(rules)
    failed = [name + " violated" for ok, name, *_ in rows if not ok]
    if failed:
        raise CertificateError(failed)
    checks = tuple(Check(name, float(lhs), float(rhs), strict, float(slack))
                   for _, name, lhs, rhs, strict, slack in rows)
    derived = {k: float(x) for k, x in derived.items()}
    inputs = {**inputs, **{k: derived.pop(k) for k in list(derived) if k in inputs}}
    transient = derived["gamma_lower"] - 1.0 if "gamma_lower" in derived else None
    return RateCertificate(system, inputs, derived, float(rate), transient, checks)


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
    return _certify_cell("fb1", {"rho": rho, "beta": beta, "lambda_lower": lambda_lower,
                                 "lambda_upper": lambda_upper, "alpha": alpha, "eta": eta})


def certify_grad1(rho: float, beta: float, lambda_lower: float,
                  alpha: float) -> RateCertificate:
    """Certify the first-order gradient flow; the value gap decays like exp(-alpha*t).

    Requires alpha <= 2*lambda_lower*beta*rho^2.  The decay applies to
    g(x(t)) - g(x*); through (rho/2)*||x - x*||^2 <= gap it also bounds the
    squared distance.
    """
    return _certify_cell("grad1", {"rho": rho, "beta": beta, "lambda_lower": lambda_lower,
                                   "alpha": alpha})


# ---------------------------------------------------------------------------
# second-order forward-backward


def fb2_eta(rho: float, beta: float, alpha: float, delta: float) -> float:
    """The step scale eta of the second-order forward-backward flow.

    1/eta = (1/beta + 1/(4*rho*beta^2*alpha))/delta - rho; the result is nan
    unless 1/eta > 0.  The inputs are validated by certify_fb2's input rules.
    """
    alpha, delta = float(alpha), float(delta)
    _check_inputs(_fb2_rules(rho, beta, alpha, delta))
    inv_eta = _fb2_constants(rho, beta, alpha, delta)[1]
    return 1.0 / inv_eta if inv_eta > 0.0 else math.nan


def certify_fb2(rho: float, beta: float, alpha: float, delta: float,
                sched: Schedule, t_grid_end: float = GRID_END) -> RateCertificate:
    """Certify the damped second-order forward-backward flow.

    Derives eta, 1/eta = (1/beta + 1/(4*rho*beta^2*alpha))/delta - rho (the
    value of ``fb2_eta``), then checks on a grid that theta(t) stays below
    its lambda-quadratic bound, that theta at lambda_lower exceeds 2, that
    gamma(t) lies in [(1+sqrt(1+4*theta(t)))/2, 1 + K*lambda(t)], and that
    gamma and gamma/lambda are nonincreasing.  The envelope combines a
    transient exp(-(gamma_lower-1)*t) with a final exp(-t).
    """
    return _certify_cell("fb2", {
        "rho": rho, "beta": beta, "alpha": float(alpha), "delta": float(delta),
        "lambda_lower": sched.lambda_lower, "lambda_upper": sched.lambda_upper,
        "t_grid_end": float(t_grid_end), "n_grid": GRID_POINTS}, sched)


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
    places gamma at the midpoint of its window.  The pick is certified with
    certify_fb2, so an infeasible input raises its CertificateError; eta is
    the certificate's.
    """
    alpha, delta = float(alpha), float(delta)
    _check_inputs(_fb2_rules(rho, beta, alpha, delta))
    _, _, k_slope, theta_coeff = _fb2_constants(rho, beta, alpha, delta)
    # theta(lam) = theta_coeff*lam <= K*lam + K^2*lam^2 holds for
    # lam >= (theta_coeff - K)/K^2; theta > 2 needs lam > 2/theta_coeff.
    lam_quad = (theta_coeff - k_slope) / k_slope ** 2 if theta_coeff > k_slope else 0.0
    lam = 1.01 * max(lam_quad, 2.0 / theta_coeff)
    lo = (1.0 + math.sqrt(1.0 + 4.0 * theta_coeff * lam)) / 2.0
    hi = 1.0 + k_slope * lam
    gamma = 0.5 * (lo + hi)
    cert = certify_fb2(rho, beta, alpha, delta, Schedule.constant(lam, gamma=gamma))
    return SuggestedConstants(lam=lam, gamma=gamma, eta=cert.derived["eta"])


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
    if sched.alpha is None:
        raise ValueError("no alpha(t) in the schedule")
    return _certify_cell("grad2", {
        "rho": rho, "beta": beta, "alpha_bar": alpha_bar,
        "lambda_lower": sched.lambda_lower, "lambda_upper": sched.lambda_upper,
        "t_grid_end": float(t_grid_end), "n_grid": GRID_POINTS}, sched)


def suggest_constants_grad2(rho: float, beta: float,
                            alpha: Optional[float] = None) -> SuggestedConstants:
    """Pick a feasible constant (alpha, lambda, gamma) for the second-order gradient flow.

    Default alpha is 2/(beta^2*rho^2) - 1 when beta*rho < 1 (the smallest
    admissible floor) and 1.5 when beta*rho = 1.  lambda and gamma sit at the
    midpoints of their windows, which are nonempty for every admissible alpha.
    The pick is certified with certify_grad2, so an inadmissible rho*beta or
    alpha raises its CertificateError.
    """
    positive(rho, "rho")
    positive(beta, "beta")
    if alpha is None:
        bound = 2.0 / (beta * beta * rho * rho) - 1.0
        alpha = bound if bound > 1.0 else 1.5
    alpha = positive(alpha, "alpha")
    lam_lo = alpha / (beta * rho * rho)
    lam_hi = 0.5 * beta * (alpha + alpha * alpha)
    lam = 0.5 * (lam_lo + lam_hi)
    gam_lo = (1.0 + math.sqrt(1.0 + 8.0 * lam / beta)) / 2.0
    gam_hi = 1.0 + alpha
    gamma = 0.5 * (gam_lo + gam_hi)
    certify_grad2(rho, beta, Schedule.constant(lam, gamma=gamma, alpha=alpha))
    return SuggestedConstants(lam=lam, gamma=gamma, alpha=alpha)


# ---------------------------------------------------------------------------
# a grid of cells at once


class GridVerdict(NamedTuple):
    """Per cell: feasible, the decay exponent and gamma_lower (nan where infeasible
    or absent) and the first failure ("" where feasible)."""
    feasible: np.ndarray
    decay_exponent: np.ndarray
    gamma_lower: np.ndarray
    failure: list


def certify_grid(system: str, rho: float, beta: float, cells: dict,
                 t_grid_end: float = GRID_END) -> GridVerdict:
    """Decide certify_<system> for every cell of a grid in one array evaluation.

    ``cells`` holds the inputs of ``_table`` by name, each shared by every cell
    (a number, or for a coefficient a callable such as a Profile, called once
    on the time grid) or a 1-D array with one number per cell.  A cell's
    decision, decay exponent and gamma_lower are certify_<system>'s; its
    failure is its first out-of-range input's text or "<check> violated".
    """
    n = max([np.size(x) for x in cells.values() if isinstance(x, np.ndarray)], default=1)
    rules, rows, rate, derived = _evaluate(system, rho, beta, cells, t_grid_end)

    def each(x):   # one number per cell
        return np.broadcast_to(np.ravel(x), (n,))

    failed = np.empty((len(rules) + len(rows), n), dtype=bool)   # checks x cells
    for i, (ok, *_) in enumerate(rules + rows):
        failed[i] = ~np.ravel(ok)
    first = np.argmax(failed, axis=0)  # each cell's first failure: the first True down
    feasible = ~failed[first, np.arange(n)]
    texts = np.array([""] + [None] * len(rules) + [row[1] + " violated" for row in rows])
    failure = texts[np.where(feasible, 0, first + 1)].tolist()
    for j in np.flatnonzero(~feasible & (first < len(rules))).tolist():
        _, template, name, x = rules[first[j]]
        failure[j] = _text(template, name, x if name is None else each(x)[j])
    return GridVerdict(feasible, *(np.where(feasible, each(x), math.nan) for x in (
        rate, derived.get("gamma_lower", math.nan))), failure)


# ---------------------------------------------------------------------------
# decay lemma: the Lyapunov quantity and the closed-form bound


def lyapunov(cert: RateCertificate, sched: Schedule, t, h, hdot, u, shift: float = 0.0):
    """The decay lemma's Lyapunov quantity of a second-order certificate, times e^-shift,

        L(t) = e^t * (h' + (gamma(t) - 1)*h + b2(t)*u),  b2(t) = r*gamma(t)/lambda(t),

    at a float t or an array of times, given the lemma's h, its derivative h'
    and u = ||x'||^2 there, as e^(t - shift)*(...): a shift at the horizon keeps
    it finite past t = 709.78, where e^t overflows.  fb2's h is ||x - x*||^2/2 and
    r = (rho + 1/eta - S)/(2*rho + 1/eta); grad2's h is the value gap and
    r = 1/2.  The lemma's hypotheses, which the certificate's checks imply,
    make L nonincreasing, so h obeys ``lemma_bound`` with M = L(0).  gamma
    and lambda are each called once on t.
    """
    if cert.transient_exponent is None:
        raise ValueError("the decay lemma needs a second-order certificate, got %s"
                         % cert.system)
    gamma, lam = sched.gamma(t), sched.lam(t)
    if cert.system == "fb2":
        rho = cert.inputs["rho"]
        big_s, inv_eta, _, _ = _fb2_constants(rho, *(cert.inputs[k] for k in (
            "beta", "alpha", "delta")))
        b2 = (gamma / lam) * ((rho + inv_eta - big_s) / (2.0 * rho + inv_eta))
    else:
        b2 = gamma / (2.0 * lam)
    return np.exp(t - shift) * (hdot + (gamma - 1.0) * h + b2 * u)


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
