"""Prox catalog vs brute-force oracle, resolvent identities, sampling audits."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import certificates, operators, problems
from fbflows.certificates import (certify_fb1, certify_fb2, certify_grad1, certify_grad2,
                                  suggest_constants_fb2, suggest_constants_grad2)
from fbflows.flows import FlowRHS, Schedule, ScheduleError
from fbflows.integrate import Adaptive, integrate
from fbflows.operators import (
    Array,
    FunctionOracle,
    MapAuditReport,
    MonotoneMap,
    as_points,
    as_vector,
    audit_map,
    ball_points,
    box_indicator,
    brute_force_prox,
    gradient_map,
    l1_norm,
    matvec,
    prox_resolvent,
    row_blocks,
    scaled_sqnorm,
    translated_linear,
    zero_function,
    zero_operator,
)


def test_prox_of_zero_is_identity_exactly():
    f = zero_function()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-10, 10, size=4)
        eta = float(rng.uniform(1e-3, 1e3))
        assert np.array_equal(f.prox(eta, x), x)


def test_l1_prox_soft_thresholds():
    f = l1_norm(1.0)
    assert_allclose(f.prox(1.0, np.array([2.5])), [1.5])
    assert_allclose(f.prox(1.0, np.array([-0.5])), [0.0])
    # kink region maps to exactly zero
    assert f.prox(2.0, np.array([1.9]))[0] == 0.0
    assert_allclose(f.prox(0.5, np.array([-3.0, 0.2])), [-2.5, 0.0])


def test_sqnorm_prox_shrinks():
    f = scaled_sqnorm(1.0)
    assert_allclose(f.prox(1.0, np.array([2.0])), [1.0])
    # stationarity p + eta*c*p = x
    p = f.prox(0.3, np.array([4.0, -1.0]))
    assert_allclose(p + 0.3 * p, [4.0, -1.0], rtol=1e-15)


def test_box_prox_projects():
    f = box_indicator(0.0, 1.0)
    assert_allclose(f.prox(1.0, np.array([3.0])), [1.0])
    assert_allclose(f.prox(7.0, np.array([-2.0, 0.4, 9.0])), [0.0, 0.4, 1.0])
    assert f.value(np.array([0.5])) == 0.0
    assert f.value(np.array([1.5])) == math.inf


def test_translated_linear_prox_closed_form():
    f = translated_linear(1.0, [1.0, 0.0])
    assert_allclose(f.prox(1.0, np.array([3.0, 1.0])), [2.0, 0.5])


# independent restatement of each catalog objective, vectorized over the grid
_BRUTE_CASES = [
    ("zero", zero_function(),
     lambda p: np.zeros_like(np.asarray(p, dtype=float)),
     lambda eta, x: 1.0 + abs(x)),
    ("l1_norm", l1_norm(1.3),
     lambda p: 1.3 * np.abs(p),
     lambda eta, x: 5.0 * eta * 1.3 + 1e-6),
    ("scaled_sqnorm", scaled_sqnorm(0.7),
     lambda p: 0.35 * np.square(p),
     lambda eta, x: abs(x) + 1.0),
    ("box_indicator", box_indicator(-1.0, 2.0),
     lambda p: np.where((np.asarray(p) >= -1.0) & (np.asarray(p) <= 2.0), 0.0, np.inf),
     lambda eta, x: abs(x) + 4.0),
    ("translated_linear", translated_linear(0.8, [0.3]),
     lambda p: 0.4 * np.square(p) - 0.3 * np.asarray(p),
     lambda eta, x: abs(x) + 2.0),
]


@pytest.mark.parametrize("name,oracle,objective,halfwidth",
                         _BRUTE_CASES, ids=[c[0] for c in _BRUTE_CASES])
def test_prox_matches_brute_force(name, oracle, objective, halfwidth):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(250):
        x = float(rng.uniform(-4, 4))
        eta = float(rng.uniform(0.1, 3.0))
        got = oracle.prox(eta, np.array([x]))[0]
        ref = brute_force_prox(objective, eta, x, halfwidth=halfwidth(eta, x))
        worst = max(worst, abs(got - ref))
    assert worst <= 1e-4


def test_brute_force_prox_validates_window():
    with pytest.raises(ValueError):
        brute_force_prox(lambda p: np.abs(p), 1.0, 0.0, halfwidth=0.0)
    with pytest.raises(ValueError):
        brute_force_prox(lambda p: np.abs(p), -1.0, 0.0, halfwidth=1.0)


def test_resolvent_of_zero_operator_is_identity():
    a = zero_operator()
    x = np.array([3.0, -1.0])
    assert np.array_equal(a.resolve(0.01, x), x)
    assert np.array_equal(a.resolve(100.0, x), x)
    assert np.signbit(a.resolve(0.01, [-0.0])).all()   # bit for bit: -0.0 stays -0.0


def test_resolvent_translated_linear():
    a = prox_resolvent(translated_linear(1.0, [1.0, 0.0]))
    p = a.resolve(1.0, np.array([3.0, 1.0]))
    assert_allclose(p, [2.0, 0.5])
    # stationarity (x - p)/eta = rho*p - c
    x = np.array([0.7, -2.2])
    eta = 0.6
    p = a.resolve(eta, x)
    assert_allclose((x - p) / eta, 1.0 * p - np.array([1.0, 0.0]), rtol=1e-13)


def test_resolvent_box_normal_cone_is_projection():
    a = prox_resolvent(box_indicator(0.0, 1.0))
    assert_allclose(a.resolve(1.0, np.array([3.0])), [1.0])
    assert_allclose(a.resolve(0.2, np.array([-5.0, 0.3])), [0.0, 0.3])


def test_resolvent_rejects_nonpositive_eta():
    # every resolvent the library builds states the eta rule of check_eta: the zero
    # operator, the prox of each catalog function and each registry instance's a
    catalog = [zero_function(), l1_norm(0.7), scaled_sqnorm(2.0), box_indicator(-1.0, 1.0),
               translated_linear(1.0, [1.0, 0.0])]
    cases = [(zero_operator(), 2)] + [(prox_resolvent(f), 2) for f in catalog]
    cases += [(inst.a, inst.dim) for inst in map(problems.get_problem, problems.list_problems())]
    for a, dim in cases:
        for eta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^step scale eta must be positive and finite"):
                a.resolve(eta, np.ones(dim))


def test_catalog_prox_checks_eta_before_x():
    # given a bad eta and a bad x, every catalog prox names eta
    catalog = [zero_function(), l1_norm(0.7), scaled_sqnorm(2.0), box_indicator(-1.0, 1.0),
               translated_linear(1.0, [1.0])]
    for f in catalog:
        with pytest.raises(ValueError, match="^step scale eta must be positive and finite"):
            f.prox(0.0, np.array([math.nan]))


def test_catalog_declares_smoothness_and_wrappers_inherit_it():
    smooth = [zero_function(), scaled_sqnorm(2.0), translated_linear(1.0, [1.0, 0.0])]
    kinked = [l1_norm(1.0), box_indicator(-1.0, 1.0), FunctionOracle(value=abs, prox=abs)]
    assert all(f.smooth for f in smooth) and not any(f.smooth for f in kinked)
    for f in smooth + kinked:
        assert prox_resolvent(f).smooth == f.smooth
    for f in smooth + [problems.get_problem("quadratic-2d").g]:
        assert f.smooth and gradient_map(f, 0.5).smooth
    skew = problems.get_problem("skew-rotation")
    assert zero_operator().smooth and skew.a.smooth and skew.b.smooth
    assert not MonotoneMap(eval=abs, beta=1.0).smooth


@pytest.mark.parametrize("f, formula", [
    (l1_norm(0.7), lambda eta, x: np.sign(x) * np.maximum(np.abs(x) - eta * 0.7, 0.0)),
    (box_indicator(-1.0, 2.0), lambda eta, x: np.clip(x, -1.0, 2.0)),
], ids=["l1", "box"])
def test_catalog_prox_returns_the_bits_of_its_kernel(f, formula):
    # the kernel is the prox without its input checks: on valid points and blocks,
    # kinks and zeros included, the prox has the kernel's bits and the textbook
    # formula's values (a signed zero aside), and the resolvent keeps the kernel
    assert prox_resolvent(f).kernel is f.kernel
    rng = np.random.default_rng(5)
    for eta in (1e-3, 0.35, 1.0, 7.0):
        x = rng.uniform(-3.0, 3.0, (40, 5))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[0] = [eta * 0.7, -eta * 0.7, -1.0, 2.0, -0.0]
        for points in (x, x[0], x[1]):
            got = f.prox(eta, points)
            assert got.tobytes() == f.kernel(eta, points).tobytes()
            assert np.array_equal(got, formula(eta, points))
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, np.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            f.prox(1.0, bad)
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            f.prox(eta, np.ones(2))


def test_prox_resolvent_needs_prox():
    smooth_only = gradient_map(scaled_sqnorm(1.0), 1.0)  # noqa: F841 exercised below
    with pytest.raises(ValueError):
        prox_resolvent(FunctionOracle(value=lambda x: 0.0))


@pytest.mark.parametrize("oracle", [
    l1_norm(1.0),
    box_indicator(-1.0, 1.0),
    scaled_sqnorm(2.0),
    translated_linear(0.5, [1.0, -2.0, 0.0]),
], ids=["l1", "box", "sqnorm", "translated"])
def test_resolvent_firmly_nonexpansive(oracle):
    # ||Jx - Jy||^2 <= <Jx - Jy, x - y> on sampled pairs
    rng = np.random.default_rng(3)
    xs, ys = ball_points(rng, 200, 3, 10.0), ball_points(rng, 200, 3, 10.0)
    for x, y, eta in zip(xs, ys, rng.uniform(0.05, 5.0, 200)):
        dj = oracle.prox(eta, x) - oracle.prox(eta, y)
        assert float(dj @ dj) <= float(dj @ (x - y)) + 1e-10


def test_audit_skew_rotation_map():
    smap = MonotoneMap(eval=lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1), beta=1.0)
    rep = audit_map(smap.eval, dim=2, rho_claim=0.0, beta_claim=1.0, n_pairs=500, seed=1)
    assert rep.passed
    # <Sx, x> = 0 and ||Sx|| = ||x|| exactly
    assert abs(rep.min_monotone_quotient) <= 1e-12
    assert abs(rep.max_lipschitz_ratio - 1.0) <= 1e-12
    assert rep.cocoercivity_violation_fraction > 0.9


def test_audit_identity_claims():
    ident = lambda x: x  # noqa: E731
    rep = audit_map(ident, dim=3, rho_claim=1.0, beta_claim=1.0, n_pairs=300, seed=2)
    assert rep.passed
    assert rep.cocoercivity_violations == 0
    # claiming the identity is 0.5-Lipschitz must fail
    rep = audit_map(ident, dim=3, beta_claim=2.0, n_pairs=300, seed=2)
    assert not rep.lipschitz_ok and not rep.passed
    # inflating the monotonicity claim must fail
    rep = audit_map(ident, dim=3, rho_claim=2.0, n_pairs=300, seed=2)
    assert not rep.monotone_ok and not rep.passed


def _audit_map_reference(map_eval, dim, rho_claim=None, beta_claim=None,
                         n_pairs=1000, seed=0, radius=10.0, slack=1e-9):
    """The per-pair audit loop that the block audit replaced: one map call per
    point, the statistics folded in pair by pair, on the pairs that the block
    sampler draws for each row block."""
    rng = np.random.default_rng(seed)
    pairs = []
    for rows in row_blocks(n_pairs, dim):
        pairs += zip(*operators._draw_pairs(rng, rows.stop - rows.start, dim, radius))
    assert len(pairs) == n_pairs
    min_quot = math.inf
    max_ratio = 0.0
    coco_bad = 0
    for x, y in pairs:
        dx = x - y
        nx2 = float(np.dot(dx, dx))
        assert nx2 > 1e-20
        df = np.asarray(map_eval(x), dtype=float) - np.asarray(map_eval(y), dtype=float)
        inner = float(np.dot(df, dx))
        min_quot = min(min_quot, inner / nx2)
        max_ratio = max(max_ratio, math.sqrt(float(np.dot(df, df)) / nx2))
        if beta_claim is not None:
            if inner - beta_claim * float(np.dot(df, df)) < -1e-6:
                coco_bad += 1
    return MapAuditReport(
        n_pairs=n_pairs, rho_claim=rho_claim, beta_claim=beta_claim,
        min_monotone_quotient=min_quot, max_lipschitz_ratio=max_ratio,
        monotone_ok=True if rho_claim is None else min_quot >= rho_claim - slack,
        lipschitz_ok=True if beta_claim is None else max_ratio <= 1.0 / beta_claim + slack,
        cocoercivity_violations=coco_bad,
        cocoercivity_violation_fraction=coco_bad / n_pairs)


def _dense_50d_map():
    rng = np.random.default_rng(50)
    m = rng.standard_normal((50, 50))
    q = m @ m.T + np.eye(50)
    return lambda x: matvec(q, x)


def _registry_audits():
    cases = []
    for name in ("skew-rotation", "quadratic-2d", "sc-lasso-20d"):
        inst = problems.get_problem(name)
        cases.append((name + "-sum", inst.sum_eval, inst.dim,
                      dict(rho_claim=inst.rho, seed=4)))
        cases.append((name + "-b", inst.b.eval, inst.dim,
                      dict(rho_claim=0.0, beta_claim=inst.beta, seed=5)))
    return cases


_IDENTITY = lambda x: x  # noqa: E731
_AUDIT_CASES = _registry_audits() + [
    ("identity-pass", _IDENTITY, 3, dict(rho_claim=1.0, beta_claim=1.0, n_pairs=300,
                                         seed=2)),
    ("identity-lipschitz-fails", _IDENTITY, 3, dict(beta_claim=2.0, n_pairs=300, seed=2)),
    ("identity-monotone-fails", _IDENTITY, 3, dict(rho_claim=2.0, n_pairs=300, seed=2)),
    ("dense-50d", _dense_50d_map(), 50, dict(rho_claim=1.0, beta_claim=1e-3, seed=6)),
]


@pytest.mark.parametrize("name,map_eval,dim,claims", _AUDIT_CASES,
                         ids=[c[0] for c in _AUDIT_CASES])
def test_block_audit_matches_per_pair_loop(name, map_eval, dim, claims):
    got = audit_map(map_eval, dim, **claims)
    ref = _audit_map_reference(map_eval, dim, **claims)
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)


def test_sample_ball_matches_linalg_norm_draws():
    # one block of normals, then one uniform per row for the radius; each row
    # is scaled by its np.linalg.norm
    rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    for dim in (1, 2, 3, 20, 100):
        for n in (1, 7, 50):
            got = ball_points(rng, n, dim, 10.0)
            u = ref_rng.standard_normal((n, dim))
            radii = 10.0 * ref_rng.random(n) ** (1.0 / dim)
            ref = np.array([(r / np.linalg.norm(row)) * row for r, row in zip(radii, u)])
            assert got.shape == (n, dim)
            assert got.tobytes() == ref.tobytes()


class _ReplayRng:
    """Stands in for a Generator: hands out the given normal rows and uniforms
    in order and records each request."""

    def __init__(self, normals, uniforms):
        self.normals = [np.array(row, dtype=float) for row in normals]
        self.uniforms = list(uniforms)
        self.requests = []

    def standard_normal(self, size):
        n, _ = size
        self.requests.append(("normal", n))
        rows, self.normals = self.normals[:n], self.normals[n:]
        return np.array(rows)

    def random(self, n):
        self.requests.append(("random", n))
        draws, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return np.array(draws)


def test_ball_points_redraws_short_normal_rows():
    # row 1 is zero, and so is its first redraw; rows 0 and 2 are kept
    rng = _ReplayRng([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [3.0, 4.0]],
                     [0.25, 1.0, 0.0])
    got = ball_points(rng, 3, 2, 10.0)
    assert rng.requests == [("normal", 3), ("normal", 1), ("normal", 1), ("random", 3)]
    assert np.array_equal(got, [[5.0, 0.0], [6.0, 8.0], [0.0, 0.0]])
    assert not rng.normals and not rng.uniforms


def test_draw_pairs_redraws_coincident_second_points():
    # pair 0 draws y == x, so its second point is drawn again; pair 1 is kept
    rng = _ReplayRng([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                     [0.25, 0.25, 0.25, 0.25, 1.0])
    xs, ys = operators._draw_pairs(rng, 2, 2, 10.0)
    assert rng.requests == [("normal", 2), ("random", 2), ("normal", 2), ("random", 2),
                            ("normal", 1), ("random", 1)]
    assert np.array_equal(xs, [[5.0, 0.0], [0.0, 5.0]])
    half = 5.0 / math.sqrt(2.0)
    assert np.array_equal(ys, [[0.0, 10.0], [half, half]])


@pytest.mark.parametrize("dim", [1, 2, 20, 100])
def test_ball_points_radius_is_uniform_in_volume(dim):
    # the fraction of the ball's volume within radius r is (r/R)^dim, so
    # (|p|/R)^dim is uniform on [0, 1]: Kolmogorov-Smirnov against it
    n = 4000
    pts = ball_points(np.random.default_rng(dim), n, dim, 3.0)
    u = np.sort((np.linalg.norm(pts, axis=1) / 3.0) ** dim)
    assert np.all(u <= 1.0 + 1e-12)
    ranks = np.arange(1, n + 1) / n
    ks = max(np.max(ranks - u), np.max(u - (ranks - 1.0 / n)))
    assert ks < 1.63 / math.sqrt(n)  # the 1% critical value


def test_audit_nonfinite_map_fails_claims():
    rep = audit_map(lambda x: np.where(x > 9.0, np.nan, x), dim=2, rho_claim=0.0,
                    beta_claim=1.0, n_pairs=500, seed=0)
    assert not rep.monotone_ok and not rep.lipschitz_ok


_CATALOG = [
    ("zero", zero_function()),
    ("l1", l1_norm(0.7)),
    ("sqnorm", scaled_sqnorm(1.3)),
    ("box", box_indicator(-1.0, 2.0)),
    ("translated", translated_linear(0.8, [0.3, -1.0, 2.0])),
]


@pytest.mark.parametrize("name,oracle", _CATALOG, ids=[c[0] for c in _CATALOG])
def test_catalog_block_equals_rows(name, oracle):
    block = np.random.default_rng(8).uniform(-4.0, 4.0, size=(64, 3))
    block[:16] *= 0.25  # inside the box [-1, 2]^3; most other rows are outside
    calls = [lambda x: oracle.prox(0.6, x), oracle.value]
    if oracle.gradient is not None:
        calls.append(oracle.gradient)
    for call in calls:
        rows = np.array([call(x) for x in block])
        assert call(block).tobytes() == rows.tobytes()
    values = oracle.value(block)
    assert values.shape == (64,) and np.ndim(oracle.value(block[0])) == 0
    if name == "box":
        assert np.all(values[:16] == 0.0) and np.isinf(values).sum() > 16
    if name == "zero":
        assert np.array_equal(values, np.zeros(64))


def test_as_points_shapes():
    assert as_points(2.5).shape == (1,)
    assert as_points([[1.0, 2.0], [3.0, 4.0]]).shape == (2, 2)
    for bad in ([], [[]], np.zeros((2, 2, 2)), [[1.0, math.inf]]):
        with pytest.raises(ValueError):
            as_points(bad)


def test_audit_skipped_claims_pass():
    rep = audit_map(lambda x: 3.0 * x, dim=2, n_pairs=100, seed=0)
    assert rep.passed and rep.rho_claim is None and rep.beta_claim is None


def test_audit_requires_samples():
    with pytest.raises(ValueError):
        audit_map(lambda x: x, dim=2, n_pairs=0)


def test_sample_ball_stays_inside():
    pts = ball_points(np.random.default_rng(9), 200, 5, 10.0)
    assert np.all(np.linalg.norm(pts, axis=1) <= 10.0 + 1e-12)


def check_gradient(f: FunctionOracle, x: Array, h: float = 1e-5) -> float:
    """Max relative error of the gradient oracle against central differences."""
    if f.gradient is None:
        raise ValueError("oracle has no gradient")
    x = as_vector(x)
    g = np.asarray(f.gradient(x), dtype=float)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return worst


@pytest.mark.parametrize("oracle", [
    scaled_sqnorm(1.7),
    translated_linear(0.9, [2.0, -1.0, 0.5, 0.0]),
    zero_function(),
], ids=["sqnorm", "translated", "zero"])
def test_gradient_matches_central_differences(oracle):
    for x in ball_points(np.random.default_rng(11), 20, 4, 10.0):
        assert check_gradient(oracle, x, h=1e-5) <= 1e-5


def test_check_gradient_requires_gradient():
    with pytest.raises(ValueError):
        check_gradient(l1_norm(1.0), np.array([1.0]))


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        l1_norm(0.0)
    with pytest.raises(ValueError):
        l1_norm(-1.0)
    with pytest.raises(ValueError):
        scaled_sqnorm(0.0)
    with pytest.raises(ValueError):
        box_indicator(1.0, 0.0)
    with pytest.raises(ValueError):
        translated_linear(0.0, [1.0])


def test_gradient_map_validation():
    with pytest.raises(ValueError):
        gradient_map(l1_norm(1.0), 1.0)  # no gradient
    with pytest.raises(ValueError):
        gradient_map(scaled_sqnorm(1.0), 0.0)


def test_as_vector_coercion_and_rejection():
    v = as_vector(2.5)
    assert v.shape == (1,) and v[0] == 2.5
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, math.nan])


# --- the one positive-and-finite rule --------------------------------------

_FB1 = dict(rho=1.0, beta=1.0, lambda_lower=1.0, lambda_upper=1.0, alpha=0.5, eta=1.0)
_GRAD1 = dict(rho=1.0, beta=1.0, lambda_lower=1.0, alpha=1.0)
_DECAY = FlowRHS(order=1, rhs=lambda t, x: -x)


def _with(fn, base, key):
    return lambda v: fn(**{**base, key: v})


# (id, the name the message gives, the error type, a call with the value in place)
POSITIVE_SITES = [
    ("check_eta", "step scale eta", ValueError, operators.check_eta),
    ("zero_function-prox", "step scale eta", ValueError,
     lambda v: zero_function().prox(v, [1.0])),
    ("brute_force_prox", "halfwidth", ValueError,
     lambda v: brute_force_prox(np.abs, 1.0, 0.0, halfwidth=v)),
    ("l1_norm", "l1 weight", ValueError, l1_norm),
    ("scaled_sqnorm", "square-norm scale", ValueError, scaled_sqnorm),
    ("translated_linear", "curvature rho", ValueError,
     lambda v: translated_linear(v, [1.0])),
    ("gradient_map", "beta", ValueError, lambda v: gradient_map(scaled_sqnorm(1.0), v)),
    ("make_skew_rotation", "rho", ValueError,
     lambda v: problems.make_skew_rotation(v, [1.0, 0.0])),
    ("ground_truth", "tol", ValueError,
     lambda v: problems.ground_truth(problems.get_problem("skew-rotation"), tol=v)),
    ("Schedule.constant", "constant relaxation", ScheduleError, Schedule.constant),
    *[("certify_fb1-" + k, k, ValueError, _with(certify_fb1, _FB1, k)) for k in _FB1],
    *[("certify_grad1-" + k, k, ValueError, _with(certify_grad1, _GRAD1, k))
      for k in _GRAD1],
    *[(fn.__name__ + "-" + k, k, ValueError,
       _with(fn, dict(rho=1.0, beta=1.0, alpha=0.5, delta=0.5, **extra), k))
      for fn, extra in [(certify_fb2, {"sched": Schedule.constant(40.0, gamma=11.0)}),
                        (suggest_constants_fb2, {})]
      for k in ("rho", "beta")],
    *[("fb2_eta-" + k, k, ValueError,
       _with(lambda **kw: certificates.fb2_eta(**kw),
             dict(rho=1.0, beta=1.0, alpha=0.5, delta=0.5), k))
      for k in ("rho", "beta")],
    *[("certify_grad2-" + k, k, ValueError,
       _with(certify_grad2, dict(rho=1.0, beta=1.0,
                                 sched=Schedule.constant(1.5, gamma=2.4, alpha=1.5)), k))
      for k in ("rho", "beta")],
    *[("suggest_constants_grad2-" + k, k, ValueError,
       _with(suggest_constants_grad2, dict(rho=1.0, beta=1.0, alpha=1.5), k))
      for k in ("rho", "beta", "alpha")],
    ("integrate-t_end", "t_end", ValueError, lambda v: integrate(_DECAY, [1.0], t_end=v)),
    ("integrate-rel_tol", "rel_tol", ValueError,
     lambda v: integrate(_DECAY, [1.0], t_end=1.0, control=Adaptive(rel_tol=v))),
    ("integrate-abs_tol", "abs_tol", ValueError,
     lambda v: integrate(_DECAY, [1.0], t_end=1.0, control=Adaptive(abs_tol=v))),
]


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan],
                         ids=["zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("name, error, call", [site[1:] for site in POSITIVE_SITES],
                         ids=[site[0] for site in POSITIVE_SITES])
def test_positive_rule_guards_every_site(name, error, call, value):
    message = "^%s must be positive and finite, got " % re.escape(name)
    with pytest.raises(ValueError, match=message) as exc:
        call(value)
    assert type(exc.value) is error
