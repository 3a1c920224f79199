"""Numerical integration of the flows with dense trajectory recording.

One adaptive step loop runs either of two embedded Dormand-Prince pairs,
chosen from the field's declared smoothness: DOP853, the 8(5,3) pair with a
7th-order dense interpolant, for a ``FlowRHS.smooth`` field, and DOPRI5, the
5(4) pair with a 4th-order interpolant, for any other (at a kink the
8th-order pair rejects more steps than it saves).  A pair is its tableau:
both run under one step-size rule and one error norm.  Each step's local
error stays below ``Adaptive``'s tolerances, and samples fill an even grid
finer than the steps.  ``_field`` builds each run's field: a ``FlowRHS.state_map``
is probed once, so the stages are matrix products (then a declared ``kernel``)
of an affine field's (M, b), stacked per attempt over the stage times; with
constant coefficients the flow is solved in closed form (``_propagate``).
Second-order flows are integrated by state augmentation (x, v).  The module
also owns the artifact format: ``write_table`` (all-float tables, each cell the
bytes of ``FLOAT % v``, which round-trips), ``write_csv`` (rows of mixed types),
``write_json``, ``trajectory_columns``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from typing import NamedTuple, Optional

import numpy as np

from .flows import FlowRHS, Profile
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
MAX_STEPS = 1_000_000  # step attempts of one run, accepted plus rejected
COND_MAX = 1e4  # the largest cond(V) of M = V diag(w) V^-1 that ``_propagate`` takes


@dataclasses.dataclass
class Trajectory:
    """Sampled solution: times (strictly increasing), states, velocities.

    The samples are every accepted step end and the even grid; the checks
    read them all.  ``grid`` holds the increasing sample indices of the even
    grid's times, a step end standing in for a grid time it meets; those are
    the rows the artifact writers write.  For first-order flows ``v`` holds
    the rhs re-evaluated at the samples (the exact velocity), not a finite
    difference: one call per block of samples, with the sample times as a
    column, in the row blocks of ``operators.row_blocks``.  Sample 0 is the
    initial data, untouched by interpolation.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    meta: dict
    grid: np.ndarray


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


def _rms(v) -> float:
    return math.sqrt(np.add.reduce(np.square(v)) / v.size)


def _matrix(rows, width):
    """Tableau rows as one zero-padded (len(rows), width) matrix."""
    out = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


class _Pair(NamedTuple):
    """An embedded Runge-Kutta pair with first-same-as-last and dense output.

    Stage i >= 1 is the rhs at t + c[i]*h, y + h*sum_j a[i, j] K[j], ``a``
    the square tableau.  The argument of stage ``stages - 1`` is the new
    solution, so that stage is the next step's first; the stages after it are
    the dense output's extra stages.  Each row of ``w`` weighs the stages K
    (one per row) into one vector of ``w @ K``: the solution's row
    a[stages - 1], then the ``n_err`` rows of the error estimate (sized by
    ``_error_norm``), then the dense coefficients beyond the four Hermite
    ones.  ``order`` sets the exponent of the step-size rule and of the first step.
    """

    name: str
    order: int
    stages: int
    a: np.ndarray
    c: tuple
    w: np.ndarray
    n_err: int


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


_DOPRI5 = _Pair(name="dopri5(4)", order=5, stages=7, a=_matrix(_A, 7), c=_C,
                w=_matrix((_A[6], _E, _D), 7), n_err=1)

# Dormand-Prince 8(5,3) tableau, with the digits of Hairer's dop853.f (Hairer,
# Norsett & Wanner, Solving ODEs I, II.5 and II.10).  Row 12 is the 8th-order
# solution; rows 13-15 are the extra stages of the 7th-order dense output.
_A8 = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
     3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
     1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
     -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138),
)
_C8 = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
       0.118350341907227396726757197510, 0.281649658092772603273242802490,
       0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
       0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
       0.1, 0.2, 0.777777777777777777777777777778)
# The 5th-order error weights, and the 3rd-order ones as the solution's weights
# minus those of Hairer's 3rd-order solution, at stages 0, 8 and 11.
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3 = tuple(b - _BHH.get(j, 0.0) for j, b in enumerate(_A8[12]))
# Weights of the four dense coefficients beyond the Hermite ones, over all 16 stages.
_D8 = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)


_DOP853 = _Pair(name="dop853(5,3)", order=8, stages=13, a=_matrix(_A8, 16), c=_C8,
                w=_matrix((_A8[12], _E5, _E3, *_D8), 16), n_err=2)

_SAFETY = 0.9
_MIN_RATIO, _MAX_RATIO = 1 / 3, 6.0  # the bounds of h_new/h


def _error_norm(h, sc, errors):
    """Hairer's estimate h*e/sqrt(n*(e + e3/100)), with e and e3 the sums of
    squares of the error rows scaled by sc, e3 = 0 for a single row: then it
    is the RMS norm of h*errors[0]/sc."""
    e = float(np.add.reduce(np.square(errors[0] / sc)))
    if e == 0.0:
        return 0.0
    e3 = float(np.add.reduce(np.square(errors[1] / sc))) if len(errors) > 1 else 0.0
    return h * e / math.sqrt((e + 0.01 * e3) * sc.size)


def _initial_step(fun, y0, f0, t_end, rtol, atol, order):
    """The first step from t = 0 (Hairer, Norsett & Wanner, Solving ODEs I, II.4); an
    overflow in the scaled norms d0 of y0 and d1 of f0 leaving no finite h0 > 0 raises
    ``IntegrationError``."""
    sc = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / sc), _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise IntegrationError("no finite starting step", {"t": 0.0, "d0": d0, "d1": d1})
    y1 = y0 + h0 * f0
    f1 = fun(h0, y1)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / order)
    return min(100.0 * h0, h1, t_end)


def _accepted_steps(pair, fun, y0, t_end, rtol, atol, stages=None):
    """Integrate with ``pair`` from t = 0, in at most ``MAX_STEPS`` attempts; returns
    (steps, t, y, stats).

    ``steps`` holds one list per field of the accepted steps: the left end,
    the width h and the dense-output coefficients (y, the Hermite terms, then
    one per dense row of ``pair.w``).  An attempt forms every stage, the dense
    output's extra ones too, then its error and dense rows as one product
    ``pair.w[1:] @ K``.  ``stages(ts, y)`` gives the field at stage i of an
    attempt from y with stage times ts (default ``fun`` at ts[i]), at y + u for
    u one dot of the tableau row with the stages before it.  One test of the error
    norm plus the largest tolerance scale (|y| carried from the last step)
    stops a non-finite new state or error row.  Both pairs take one step-size
    rule: the ratio h_new/h is 0.9 * err**(-1/order), err the ``_error_norm`` of
    the attempt, within [``_MIN_RATIO``, ``_MAX_RATIO``], and no larger than 1
    right after a rejection.
    """
    c, n_err, inv_order = pair.c, pair.n_err, 1 / pair.order
    last = pair.stages - 1  # the stage at the new solution (FSAL)
    extra = range(pair.stages, len(c))  # the dense output's extra stages
    fac_min, fac_max = 1.0 / _MAX_RATIO, 1.0 / _MIN_RATIO  # bounds of h/h_new
    cs = np.array(c)
    if stages is None:  # fun at each stage time
        stages = lambda ts, y: (lambda i, u, ts=ts.tolist(): fun(ts[i], y + u))
    t = 0.0
    y = np.array(y0, dtype=float)
    ay = np.abs(y)  # |y|, for the tolerance scale
    K = np.empty((len(c), y.size))  # the stages of the current step, one per row
    K[0] = fun(t, y)
    if not np.all(np.isfinite(K[0])):
        raise IntegrationError("non-finite rhs at the initial point",
                               {"t": t, "y": y.tolist()})
    h = _initial_step(fun, y, K[0], t_end, rtol, atol, pair.order)
    n_rhs = 2  # initial-step estimator
    n_acc = n_rej = 0
    rejected = False
    steps = tuple([] for _ in range(5 + len(pair.w) - n_err))  # 6 + the dense rows

    while t < t_end - 1e-14 * max(t_end, 1.0):
        if n_acc + n_rej >= MAX_STEPS:
            raise IntegrationError(
                "step budget exhausted",
                {"t": t, "accepted": n_acc, "rejected": n_rej})
        if h < 1e-14 * max(t_end, 1.0):
            raise IntegrationError(
                "step size underflow",
                {"t": t, "h": h, "accepted": n_acc, "rejected": n_rej})
        h = min(h, t_end - t)

        field, ha = stages(t + cs * h, y), h * pair.a
        for i in range(1, len(c)):
            u = ha[i, :i].dot(K[:i])
            K[i] = field(i, u)
            if i == last:
                y_new = y + u  # the last stage is at the solution
        rows = pair.w[1:] @ K
        n_rhs += last
        ay_new = np.abs(y_new)
        sc = atol + rtol * np.maximum(ay, ay_new)
        err = _error_norm(h, sc, rows[:n_err])
        if not math.isfinite(err + np.maximum.reduce(sc)):  # a nan or inf in y_new or errors
            raise IntegrationError(
                "non-finite state during integration",
                {"t": t, "h": h, "accepted": n_acc, "rejected": n_rej})

        fac11 = err ** inv_order if err > 0.0 else 1e-10
        if err <= 1.0:
            h_new = h / max(fac_min, min(fac_max, fac11 / _SAFETY))
            dense = rows[n_err:]
            n_rhs += len(extra)
            ydiff = y_new - y
            bspl = h * K[0] - ydiff
            fields = (t, h, y, ydiff, bspl, ydiff - h * K[last] - bspl, *(h * dense))
            for column, value in zip(steps, fields):
                column.append(value)
            t = t + h
            y, ay = y_new, ay_new
            K[0] = K[last]
            n_acc += 1
            if rejected:
                h_new = min(h_new, h)
            rejected = False
            h = h_new
        else:
            h = h / min(fac_max, fac11 / _SAFETY)
            rejected = True
            n_rej += 1

    stats = {"accepted": n_acc, "rejected": n_rej, "rhs_evaluations": n_rhs}
    return steps, t, y, stats


def _sample_times(lefts, t_fin, t_end, n_dense):
    """The sample times (every step end plus an even grid of n_dense) and the
    sample index of each grid time.

    A time within 1e-12*max(t_end, 1) of the one before it (a step end sorts
    first on a tie) is that sample, so the grid index is increasing, and has
    n_dense entries unless the grid is finer than that resolution.
    """
    ts = np.concatenate([lefts, [t_fin], np.linspace(0.0, t_end, n_dense)])
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    keep = np.ones(ts.size, dtype=bool)
    keep[1:] = np.diff(ts) > 1e-12 * max(t_end, 1.0)
    grid = (np.cumsum(keep) - 1)[order > lefts.size]  # the kept sample of each grid time
    return ts[keep], grid[np.diff(grid, prepend=-1) > 0]


def _dense_output(steps, t_fin, y_fin, y0, t_end, n_dense):
    """Sample times, the states there, and the sample index of each grid time
    (``_sample_times``).

    One ``searchsorted`` places every sample in its step, and the interpolant
    c0 + th*(c1 + (1-th)*(c2 + th*(c3 + ...))), its factors alternating, is
    evaluated once over all samples, from the inside out, gathering one
    coefficient at a time.  Sample 0 is y0 and samples from t_fin on are
    y_fin, untouched.
    """
    lefts, widths, *coeffs = steps
    lefts = np.array(lefts, dtype=float)
    ts, grid = _sample_times(lefts, t_fin, t_end, n_dense)
    ys = np.empty((ts.size, y0.size))
    ys[0] = y0
    n_in = int(np.searchsorted(ts, t_fin))
    ys[n_in:] = y_fin
    if not lefts.size:  # t_end below the step loop's resolution: no step taken
        return ts, ys, grid
    tau = ts[1:n_in]  # inside (0, t_fin), so every tau has a step to its left
    idx = np.searchsorted(lefts, tau, side="right") - 1
    th = ((tau - lefts[idx]) / np.array(widths, dtype=float)[idx])[:, None]
    one_minus = 1.0 - th
    out = ys[1:n_in]
    np.take(np.array(coeffs[-1]), idx, axis=0, out=out)
    for k in range(len(coeffs) - 2, -1, -1):
        out *= th if k % 2 == 0 else one_minus
        out += np.array(coeffs[k])[idx]
    return ts, ys, grid


def _probe(state_map, x0):
    """(G, F(x0)) of an affine F, G's column i F(e_i) - F(0), from one block call."""
    f = np.asarray(state_map(np.vstack([np.zeros(x0.size), np.eye(x0.size), x0])), float)
    return (f[1:-1] - f[0]).T, f[-1]


def _field(flow: FlowRHS, y0):
    """(path, field, affine, stages) of a flow on y = x or (x, v), for ``_accepted_steps``.

    Without a ``state_map`` the path is ``"oracle"``, the field of ``flow.rhs``; an
    oracle's ValueError on a non-finite stage state gives a nan field, which the
    step loop's finiteness test stops.
    Else the map is probed once into (G, S(x0)), each constant ``Profile``
    coefficient is bound to its value, and the field is lambda F(x), or
    (v, lambda F(x) - gamma v) at order 2, F anchored at the oracles' own S(x0).
    Given a ``kernel`` J the path is ``"kinked"``: F(x) = J(G (x - x0) + S(x0)) - x,
    with the step loop's default stages.  Else it is ``"matrix"``: F(x) =
    G (x - x0) + S(x0), the field M (y - y0) + b with [M | b] = T_0 + lambda T_1
    + gamma T_2 (the x' = v, lambda G and -gamma v rows).  All constant, affine is
    (M, b) with no stages; else it is None and ``stages(ts, y)`` stacks (M_i, b_i)
    over the stage times ts: stage i at y + u is (M_i (y - y0) + b_i) + M_i u."""
    dim, n = y0.size // flow.order, y0.size
    if flow.state_map is None:
        def oracle(t, y):
            try:
                if flow.order == 1:
                    return np.asarray(flow.rhs(t, y), dtype=float)
                return np.concatenate([y[dim:], np.asarray(flow.rhs(t, y[:dim], y[dim:]),
                                                           dtype=float)])
            except ValueError:  # an oracle's own check of a stage past an overflow
                if np.isfinite(y).all():
                    raise
                return np.full(y.size, math.nan)
        return "oracle", oracle, None, None
    x0, kernel, coefs = y0[:dim], flow.kernel, (flow.sched.lam, flow.sched.gamma)[:flow.order]
    g, s0 = _probe(flow.state_map, x0)
    fixed = [coef(0.0) if isinstance(coef, Profile) and coef.start == coef.end else None
             for coef in coefs]
    if kernel is not None:
        def kinked(t, y):
            at = [coef(t) if c is None else c for c, coef in zip(fixed, coefs)]  # lambda, gamma
            x, v = y[:dim], y[dim:]
            f = (kernel(g.dot(x - x0) + s0) - x) * at[0]
            return f if flow.order == 1 else np.concatenate([v, f - at[1] * v])
        return "kinked", kinked, None, None

    terms = np.zeros((flow.order + 1, n + 1, n))  # T_k as [M | b] transposed: b the last row
    terms[1, n - dim:n, :dim], terms[1, n, n - dim:] = g, s0
    if flow.order == 2:
        terms[0, :dim, dim:], terms[0, n, :dim] = np.eye(dim), y0[dim:]
        terms[2, dim:n, dim:], terms[2, n, dim:] = -np.eye(dim), -y0[dim:]
    base = terms[0] + sum(c * term for c, term in zip(fixed, terms[1:]) if c is not None)
    vary = [(coef, term) for c, coef, term in zip(fixed, coefs, terms[1:]) if c is None]

    def affine(t):  # (M, b) at a float t, or stacked over the stage times t
        ab = base + sum(np.multiply.outer(np.full(np.shape(t), coef(t)), term)
                        for coef, term in vary)
        return ab[..., :n, :], ab[..., n, :]

    def stages(ts, y):  # at a float ts, the one (M, b), indexed by ...
        ms, bs = affine(ts)
        cs = ms @ (y - y0) + bs
        return lambda i, u: ms[i].dot(u) + cs[i]
    if vary:
        return "matrix", (lambda t, y: stages(t, y0)(..., y - y0)), None, stages
    m, b = affine(0.0)
    return "matrix", (lambda t, y: m.dot(y - y0) + b), (m, b), None


def _propagate(m, b, y0, ts):
    """(states at the times ts, cond(V)) of y' = m (y - y0) + b: y* + Re(V (e^{wt} coef)),
    y* = y0 - m^-1 b, m = V diag(w) V^-1, coef = V^-1 (y0 - y*), row 0 y0 itself.
    The states are None for a singular m (cond None), a cond(V) past ``COND_MAX``
    (rounding grows with it; a defective m) or a non-finite sample (an unstable m)."""
    try:
        y_star = y0 - np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        return None, None
    w, v = np.linalg.eig(m)
    cond = float(np.linalg.cond(v))
    if not cond <= COND_MAX:
        return None, cond if math.isfinite(cond) else None
    coef = np.linalg.solve(v, y0 - y_star)
    with np.errstate(over="ignore", invalid="ignore"):
        ys = y_star + (np.exp(np.outer(ts, w)) * coef).dot(v.T).real
    ys[0] = y0
    return (ys if np.isfinite(ys).all() else None), cond


def integrate(flow: FlowRHS, x0, v0=None, t_end: float = 10.0,
              control: Adaptive = Adaptive(), n_dense: int = N_DENSE) -> Trajectory:
    """Integrate a flow over [0, t_end]; returns a densely sampled Trajectory.

    A constant affine field is solved in closed form on the even grid (solver
    ``"eig"``, ``_propagate``); any other, or one ``_propagate`` declines, runs
    DOP853 if ``flow.smooth`` else DOPRI5, on the path ``_field`` picks from the
    flow's declarations, under the tolerances of ``control``.  The samples are
    every accepted step end plus ``n_dense`` evenly spaced points over
    [0, t_end], n_dense an integer >= 2, indexed by ``Trajectory.grid`` (the
    rows of ``to_csv``); t_end and the tolerances obey ``operators.positive``.
    Second-order flows need ``v0``.  ``meta`` holds the solver, the path
    ``field``, the tolerances, the accepted, rejected and rhs-evaluation counts
    (0 on the eig route; the dense output's extra stages count once per accepted
    step, on every path), the extreme accepted steps ``h_min``/``h_max`` (None
    without a step), and on a constant affine field ``cond``, cond(V) or None.
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
        y0 = np.concatenate([x0, np.atleast_1d(np.asarray(v0, dtype=float))])
    elif flow.order == 1:
        if v0 is not None:
            raise ValueError("first-order flow takes no v0")
        y0 = x0.copy()
    else:
        raise ValueError("unsupported flow order %r" % flow.order)

    field, fun, affine, stages = _field(flow, y0)
    pair = _DOP853 if flow.smooth else _DOPRI5
    meta = {"solver": "eig", "field": field, "rel_tol": rtol, "abs_tol": atol,
            "accepted": 0, "rejected": 0, "rhs_evaluations": 0, "h_min": None, "h_max": None}
    ys = None
    if affine is not None:
        ts, grid = _sample_times(np.empty(0), 0.0, t_end, n_dense)
        ys, meta["cond"] = _propagate(*affine, y0, ts)
    if ys is None:
        steps, t_fin, y_fin, stats = _accepted_steps(pair, fun, y0, t_end, rtol, atol, stages)
        ts, ys, grid = _dense_output(steps, t_fin, y_fin, y0, t_end, n_dense)
        meta.update(solver=pair.name, **stats, h_min=min(steps[1], default=None),
                    h_max=max(steps[1], default=None))
        del steps  # the step data is the largest array set; free it before v

    x, v = ys[:, :dim], ys[:, dim:]
    if flow.order == 1:
        v = np.empty_like(x)
        for rows in row_blocks(ts.size, dim):
            v[rows] = flow.rhs(ts[rows, None], x[rows])
    return Trajectory(t=ts, x=x, v=v, meta=meta, grid=grid)


def record_metrics(traj: Trajectory, problem) -> MetricSeries:
    """Compute h, u, gap and gradnorm along a trajectory against problem ground truth.

    Values and gradients are taken one call per row block of the samples.  A
    gap below -(1e-10 + 4 eps (|F(x)| + |F(x*)|)), more than the rounding of
    F(x) - F(x*), raises ValueError: x_star is not the minimiser.
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
    gap, present = None, [op for op in (f, g) if op is not None]
    if present:
        base = float(sum(op.value(x_star) for op in present))
        gap, size = np.empty(traj.t.size), np.empty(traj.t.size)
        for rows in blocks:
            value = sum(op.value(traj.x[rows]) for op in present)
            gap[rows], size[rows] = value - base, np.abs(value)
        floor = -1e-10 - 4.0 * np.finfo(float).eps * (size + abs(base))
        i = int(np.argmin(gap - floor))
        if gap[i] < floor[i]:
            raise ValueError("value gap %g fell below its floor %g at t = %g; x_star is suspect"
                             % (gap[i], floor[i], traj.t[i]))
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
    """Write the header line, then ``row_format % row`` for each row tuple (rows of
    mixed types; ``write_table`` writes an all-float table)."""
    line = row_format + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_table(path, header, table) -> None:
    """Write the header line, then each row of the 2-D float ``table`` as its cells
    joined by commas, each cell v the bytes of ``FLOAT % v`` (``_format_cells``).
    The rows go in ``operators.row_blocks`` blocks counted at 8 numbers per cell,
    the words of its slot, so that the arrays of a block stay under 1 MB."""
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for rows in row_blocks(table.shape[0], 8 * table.shape[1]):
            fh.write(_format_cells(table[rows]))


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_POW_MIN, _POW_MAX = -270, 300  # 10**k rows; 16 - e stays inside for 1e-280 <= |v| <= 1e280
_X_MAX = 300  # the exponent words cover -_X_MAX <= X <= _X_MAX
_NUL_WORD = 10000  # index of four NULs in the word table, after the 4-digit groups
_HEAD = _NUL_WORD + 1 + _X_MAX  # index of the "e" word of exponent X = 0
_TAIL = _HEAD + 3 * _X_MAX + 1  # index of the units word of X = 0 before a comma
_TIE = 1e-6  # a scaled value this close to a rounding tie goes through FLOAT % v


def _halves(x):
    """Dekker's split of x into a high half of 26 bits and the rest."""
    t = x * _SPLIT
    high = t - (t - x)
    return high, x - high


@functools.cache
def _cell_tables():
    """The read-only tables of ``_format_cells``, built on first use.

    ``pow10``: for _POW_MIN <= k <= _POW_MAX, 10**k as hi + lo with hi's Dekker
    halves: for k >= 0 hi and lo each correctly rounded from the exact integer,
    for k < 0 a Dekker quotient, within 1e-30 relative.  ``words``:
    4-byte ASCII words, the 4-digit groups 0000..9999, four NULs, then for each
    exponent X "e", its sign and its hundreds (or NUL) and tens digits, then for
    each X and row end its units digit, two NULs and "," or "\\n" (X in fixed
    form: NULs for the digits).  ``sig``: the count of a 4-digit group's digits
    up to its last nonzero one.  ``keep_a``, ``keep_b``, ``const``: the slot
    words of each layout key.
    """
    exact = list(itertools.accumulate(range(_POW_MAX), lambda n, _: 10 * n, initial=1))
    hi = np.array([float(n) for n in exact])
    lo = np.array([float(n - int(h)) for n, h in zip(exact, hi.tolist())])
    # 10**-k: q = 1/hi, plus q (1 - q (hi + lo)) with q hi exact by Dekker's product
    h, q = hi[-_POW_MIN:0:-1], 1 / hi[-_POW_MIN:0:-1]
    (qh, ql), (hh, hl), p = _halves(q), _halves(h), q * h
    rest = ((1 - p) - (((qh * hh - p) + qh * hl + ql * hh) + ql * hl)) - q * lo[-_POW_MIN:0:-1]
    hi, lo = np.concatenate([q, hi]), np.concatenate([q * rest, lo])
    pow10 = np.stack([hi, lo, *_halves(hi)])

    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # row j: digit j of 0000..9999
    nz = digits != 0
    sig = np.where(nz[3], 4, np.where(nz[2], 3, np.where(nz[1], 2, nz[0]))).astype(np.uint8)
    x = np.arange(-_X_MAX, _X_MAX + 1)
    ax, expo = np.abs(x), (x < -4) | (x >= 17)
    head = np.zeros((x.size, 4), np.uint8)  # "e", X's sign, hundreds (or NUL) and tens digits
    head[:, 0] = ord("e")
    head[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    head[:, 2] = np.where(ax >= 100, ax // 100 + ord("0"), 0)
    head[:, 3] = ax // 10 % 10 + ord("0")
    head[~expo] = 0
    tail = np.zeros((x.size, 2, 4), np.uint8)  # the units digit, two NULs, then "," or "\n"
    tail[:, :, 0] = np.where(expo, ax % 10 + ord("0"), 0)[:, None]
    tail[:, :, 3] = ord(","), ord("\n")
    words = np.concatenate([digits.T + ord("0"), np.zeros((1, 4), np.uint8), head,
                            tail.reshape(-1, 4)])

    # the slot's bytes p per layout key (L + 3, n_sig, negative): L integer digits in
    # fixed form (1 in exponent form; L <= 0: "0." and -L zeros), n_sig digits up to
    # the last nonzero one
    lead = np.arange(-3, 18)[:, None, None, None]
    n_sig = np.arange(18)[:, None, None]
    neg = np.arange(2)[:, None]
    p = np.arange(32)
    n_int = np.maximum(lead, 0)
    keep_a = ((p >= 3) & (p < 3 + n_int)) | (p >= 24)
    keep_b = (p >= 7 + n_int) & (p < 7 + n_sig)
    const = np.zeros((21, 18, 2, 32), np.uint8)
    const[:, :, 1, 0] = ord("-")
    const[:4, :, :, 1], const[:4, :, :, 2] = ord("0"), ord(".")  # L <= 0
    const[np.broadcast_to((p >= 3) & (p < 3 - lead) & (lead <= 0), const.shape)] = ord("0")
    const[np.broadcast_to((p == 3 + lead) & (lead >= 1) & (n_sig > lead), const.shape)] = ord(".")
    slots = [np.broadcast_to(v, const.shape).reshape(-1, 32).view(np.uint32)
             for v in (keep_a * np.uint8(255), keep_b * np.uint8(255), const)]
    literals = np.array([b"nan", b"inf", b"-inf", b"0", b"-0"], "S31")
    tables = (pow10, words.view(np.uint32)[:, 0], sig, *slots, literals)
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a, e, pow10):
    """a * 10**(16 - e) as hi + lo with |lo| <= ulp(hi)/2: Dekker's exact product
    of a with the table's hi, plus a times its lo, then a fast two-sum."""
    s_hi, s_lo, s_hh, s_hl = pow10.take((16 - _POW_MIN) - e, axis=1)
    prod = a * s_hi
    ah, al = _halves(a)
    err = ah * s_hh
    err -= prod
    ah *= s_hl
    err += ah
    s_hh *= al
    err += s_hh
    s_hl *= al
    err += s_hl
    s_lo *= a
    err += s_lo
    hi = prod + err
    prod -= hi
    err += prod
    return hi, err


def _format_cells(block) -> bytes:
    """The rows of a 2-D float ``block`` as CSV bytes, each cell v exactly ``FLOAT % v``.

    %.17g prints the 17 significant digits D of |v|, correctly rounded, with X
    the decimal exponent of their first: fixed form for -4 <= X < 17, else
    "d.ddd" then "e", X's sign and at least two digits, without trailing
    fraction zeros either way.  Here D is |v| * 10**(16 - X) rounded, scaled
    in double-double (``_scaled``, error below 1e-14), X from log10 and
    corrected once where the product leaves [1e16, 1e17).  Each cell fills a
    32-byte slot of NUL-padded words: A, the ASCII words of D's digits (digit j
    at byte 3 + j), the exponent and the separator; B, A one word later (digit
    j at byte 7 + j).  The masks of the cell's layout key (X, the digits up to
    D's last nonzero one, the sign) keep A's integer digits, B's fraction
    digits and the exponent, then add the sign, the "0.000" prefix or the
    point; dropping the NULs leaves the cells.  nan, inf and 0 get their
    literals.  A cell outside 1e-280 <= |v| <= 1e280, or whose scaled value
    lies within ``_TIE`` of a rounding tie, is ``FLOAT % v`` itself.
    """
    pow10, words, sig, keep_a, keep_b, const, literals = _cell_tables()
    n, m = block.shape
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e, pow10)
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(down | up)
    if off.size:  # log10 missed X by one near a power of ten
        e[off] += up[off].astype(np.intp) - down[off]
        hi[off], lo[off] = _scaled(a[off], e[off], pow10)
    rounded = np.rint(lo)
    fast &= np.abs(np.abs(lo - rounded) - 0.5) >= _TIE
    d = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = d == 10 ** 17  # rounded up to the next power of ten
    d[carry] = 10 ** 16
    e += carry

    index = np.empty((n, m, 8), np.intp)  # A's words
    cell = index.reshape(-1, 8)
    q, rem = np.divmod(d, 10 ** 8)
    top, mid = np.divmod(q, 10 ** 8)
    g1, g2 = np.divmod(mid, 10 ** 4)
    g3, g4 = np.divmod(rem, 10 ** 4)
    cell[:, 0], cell[:, 1], cell[:, 2], cell[:, 3], cell[:, 4] = top, g1, g2, g3, g4
    cell[:, 5] = _NUL_WORD
    cell[:, 6] = e + _HEAD
    index[:, :, 7] = (2 * e + _TAIL).reshape(n, m) + (np.arange(m) == m - 1)
    a_words = words.take(index).ravel()
    n_sig = np.where(g4 != 0, 13 + sig.take(g4), np.where(
        g3 != 0, 9 + sig.take(g3), np.where(g2 != 0, 5 + sig.take(g2), 1 + sig.take(g1))))
    lead = np.where((e >= -4) & (e < 17), e + 1, 1)
    key = ((lead + 3) * 18 + n_sig) * 2 + (v < 0)
    out = keep_a.take(key, axis=0).ravel()
    out &= a_words
    b_mask = keep_b.take(key, axis=0).ravel()
    b_mask[1:] &= a_words[:-1]  # B is A one word later; B's first word is masked
    out |= b_mask
    out |= const.take(key, axis=0).ravel()

    slow = np.flatnonzero(~fast)
    if slow.size:
        vs = v[slow]
        text = np.empty(slow.size, "S31")
        lit = ~(np.abs(vs) > 0) | np.isinf(vs)  # nan, 0 or inf
        code = np.where(vs[lit] == 0, 3, 1) + np.signbit(vs[lit])
        text[lit] = literals[np.where(np.isnan(vs[lit]), 0, code)]
        text[~lit] = [(FLOAT % c).encode() for c in vs[~lit].tolist()]
        out.view(np.uint8).reshape(-1, 32)[slow, :31] = text.view(np.uint8).reshape(-1, 31)
    return out.tobytes().translate(None, b"\0")


def write_json(path, doc) -> None:
    """Write a JSON artifact, dataclasses as dicts, with sorted keys and indent 2."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=dataclasses.asdict)
        fh.write("\n")


def to_csv(traj: Trajectory, metrics: Optional[MetricSeries], path) -> None:
    """Write the ``trajectory_columns`` table at the even-grid samples
    (``traj.grid``); an absent metric is written as nan."""
    grid = traj.grid
    absent = np.full(grid.size, math.nan)
    series = [getattr(metrics, name, None) for name in METRIC_COLUMNS]
    write_table(path, trajectory_columns(traj.x.shape[1]), np.column_stack(
        [traj.t[grid], traj.x[grid], traj.v[grid],
         *[absent if s is None else s[grid] for s in series]]))
