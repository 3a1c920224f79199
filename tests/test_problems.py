"""Benchmark instances: closed-form solutions, moduli, audits, registry."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import problems
from fbflows.operators import finite_number, matvec
from fbflows.problems import (
    audit_instance,
    from_descriptor,
    get_problem,
    ground_truth,
    list_problems,
    make_quadratic,
    make_sc_lasso,
    make_skew_rotation,
)


def test_make_quadratic_closed_form():
    inst = make_quadratic(np.diag([1.0, 4.0]), np.array([-1.0, -4.0]))
    assert inst.dim == 2
    assert inst.rho == 1.0
    assert inst.beta == 0.25
    assert_allclose(inst.x_star, [1.0, 1.0], atol=1e-12)
    assert_allclose(inst.g.value(inst.x_star), -2.5, rtol=1e-14)
    assert_allclose(inst.g.gradient(inst.x_star), [0.0, 0.0], atol=1e-12)


def test_make_quadratic_scalar_b_broadcasts():
    inst = make_quadratic(np.eye(2), 3.0)
    assert_allclose(inst.x_star, [-3.0, -3.0], atol=1e-14)
    with pytest.raises(ValueError, match="dimension"):
        make_quadratic(np.eye(2), np.array([1.0, 2.0, 3.0]))


def test_make_quadratic_rejects_bad_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        make_quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="positive definite"):
        make_quadratic(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="square"):
        make_quadratic(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="capped"):
        make_quadratic(np.eye(101), np.zeros(101))


def test_sc_lasso_soft_threshold_solution():
    # identity quadratic: x* = soft(-b, w) componentwise
    inst = make_sc_lasso(np.eye(2), np.array([-2.0, 0.5]), w=1.0)
    assert_allclose(inst.x_star, [1.0, 0.0], atol=1e-9)
    heavy = make_sc_lasso(np.eye(2), np.array([-2.0, 0.5]), w=10.0)
    assert_allclose(heavy.x_star, [0.0, 0.0], atol=1e-9)


def test_sc_lasso_zero_weight_degenerates():
    inst = make_sc_lasso(np.eye(2), np.array([-1.0, -1.0]), w=0.0)
    assert_allclose(inst.x_star, [1.0, 1.0], atol=1e-9)
    assert inst.f is None
    assert_allclose(inst.a.resolve(0.5, np.array([5.0, -5.0])), [5.0, -5.0], rtol=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        make_sc_lasso(np.eye(2), np.zeros(2), w=-1.0)


def test_sc_lasso_rejects_a_nan_weight():
    # nan is not below 0, yet it is no nonnegative weight either
    with pytest.raises(ValueError, match="^l1 weight must be nonnegative, got nan$"):
        make_sc_lasso(np.eye(2), np.zeros(2), w=math.nan)


@pytest.mark.parametrize("q", [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                               [[1.0, -math.inf], [-math.inf, 1.0]]],
                         ids=["nan", "inf", "off-diagonal-inf"])
def test_quadratic_builders_reject_a_non_finite_q(q):
    # before the symmetry and eigenvalue rules, which would misname the fault
    for build in (lambda: make_quadratic(q, [0.0, 0.0]), lambda: make_quadratic(q, 1.0),
                  lambda: make_sc_lasso(q, [0.0, 0.0], 1.0)):
        with pytest.raises(ValueError, match="^Q must hold finite numbers only$"):
            build()


def test_skew_rotation_instance():
    inst = make_skew_rotation(1.0, np.array([1.0, 0.0]))
    assert_allclose(inst.x_star, [0.5, 0.5], atol=1e-14)
    assert np.linalg.norm(inst.sum_eval(inst.x_star)) <= 1e-14
    assert_allclose(inst.a.resolve(1.0, np.array([3.0, 1.0])), [2.0, 0.5],
                    rtol=1e-15)
    assert inst.beta == 1.0
    assert inst.g is None and inst.f is None


@pytest.mark.parametrize("rho, c", [(1.0, [1.0, 0.0]), (0.7, [0.3, -1.2])])
def test_skew_rotation_maps_are_their_closed_forms_bit_for_bit(rho, c):
    # a's resolvent is (x + eta*c)/(1 + eta*rho) and the sum rho*x - c + Sx,
    # on a point and on a block, to the last bit
    inst = make_skew_rotation(rho, c)
    c, s = np.array(c), np.array([[0.0, 1.0], [-1.0, 0.0]])
    block = np.random.default_rng(11).uniform(-5.0, 5.0, (50, 2))
    for x in (block[0], block):
        for eta in (0.07, 0.3, 1.0):
            assert np.array_equal(inst.a.resolve(eta, x), (x + eta * c) / (1.0 + eta * rho))
        assert np.array_equal(inst.sum_eval(x), rho * x - c + matvec(s, x))


def test_skew_rotation_validation():
    with pytest.raises(ValueError, match="positive"):
        make_skew_rotation(0.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="2-D"):
        make_skew_rotation(1.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        make_skew_rotation(1.0, 0.0)  # scalar is not a vector


@pytest.mark.parametrize("name", ["quadratic-2d", "sc-lasso-20d", "skew-rotation"])
def test_ground_truth_agrees_with_shipped_solution(name):
    inst = get_problem(name)
    gt = ground_truth(inst, tol=1e-9)
    assert np.linalg.norm(gt - inst.x_star) <= 1e-9


def test_ground_truth_validation():
    inst = get_problem("quadratic-2d")
    with pytest.raises(ValueError, match="positive"):
        ground_truth(inst, tol=0.0)


@pytest.mark.parametrize("name", ["quadratic-2d", "sc-lasso-20d", "skew-rotation"])
def test_suite_instances_pass_audit(name):
    rep = audit_instance(get_problem(name))
    assert rep.passed, rep.failures
    assert rep.residual_at_x_star <= 1e-9


def test_skew_audit_records_cocoercivity_violations():
    rep = audit_instance(get_problem("skew-rotation"))
    assert rep.b_audit.cocoercivity_violation_fraction >= 0.99
    assert rep.passed  # recorded, not a failure


def test_audit_catches_inflated_rho():
    inst = get_problem("quadratic-2d")
    inst.rho = 5.0
    rep = audit_instance(inst)
    assert "strong monotonicity of the sum below the claimed rho" in rep.failures


def test_audit_catches_false_lipschitz_claim():
    inst = get_problem("quadratic-2d")
    inst.beta = 2.5  # claims b is (1/2.5)-Lipschitz; the true modulus is 4
    rep = audit_instance(inst)
    assert "b exceeds the claimed Lipschitz modulus 1/beta" in rep.failures


def test_audit_catches_bogus_solution():
    inst = get_problem("skew-rotation")
    inst.x_star = inst.x_star + 0.1
    rep = audit_instance(inst)
    assert "fixed-point residual at x_star above 1e-9" in rep.failures


def test_audit_sandwich_coverage():
    assert audit_instance(get_problem("quadratic-2d")).sandwich_violations is not None
    assert audit_instance(get_problem("sc-lasso-20d")).sandwich_violations is None
    assert audit_instance(get_problem("skew-rotation")).sandwich_violations is None


@pytest.mark.parametrize("name", ["quadratic-2d", "sc-lasso-20d", "skew-rotation"])
def test_oracles_on_a_block_equal_their_rows(name):
    # the shape contract: a block (n, d) gives, bit for bit, each row's result
    inst = get_problem(name)
    block = np.random.default_rng(21).uniform(-5.0, 5.0, size=(40, inst.dim))
    calls = {"b.eval": inst.b.eval, "sum_eval": inst.sum_eval,
             "a.resolve": lambda x: inst.a.resolve(0.3, x)}
    if inst.g is not None:
        calls["g.gradient"] = inst.g.gradient
        calls["g.value"] = inst.g.value
    if inst.f is not None:
        calls["f.value"] = inst.f.value
    for label, call in calls.items():
        got = np.asarray(call(block), dtype=float)
        rows = np.array([call(x) for x in block], dtype=float)
        assert got.shape == (block.shape if "value" not in label else block.shape[:1]), label
        assert got.tobytes() == rows.tobytes(), label


@pytest.mark.parametrize("dim", [2, 4, 20, 100])
def test_quadratic_value_rows_are_the_point_formula(dim):
    # each row of a block value is bitwise 0.5 * x @ q @ x + b @ x of that row
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    q = m @ m.T / dim + np.eye(dim)
    q = 0.5 * (q + q.T)
    b = rng.standard_normal(dim)
    g = make_quadratic(q, b).g
    block = 3.0 * rng.standard_normal((60, dim))
    ref = np.array([0.5 * float(x @ q @ x) + float(b @ x) for x in block])
    assert g.value(block).tobytes() == ref.tobytes()
    assert all(g.value(x) == r for x, r in zip(block, ref))


def test_quadratic_point_call_is_the_matrix_vector_product():
    # a 1-D call keeps the q @ x orientation; x @ q changes the dim-100 lasso steps
    rng = np.random.default_rng(100)
    m = rng.standard_normal((100, 100))
    q = m @ m.T / 100.0 + np.eye(100)
    q = 0.5 * (q + q.T)
    b = rng.standard_normal(100)
    inst = make_quadratic(q, b)
    for _ in range(20):
        x = rng.standard_normal(100)
        expected = (q @ x + b).tobytes()
        assert inst.g.gradient(x).tobytes() == expected
        assert inst.b.eval(x).tobytes() == expected


def test_registry_round_trip():
    assert list_problems() == ["quadratic-2d", "sc-lasso-20d", "skew-rotation"]
    with pytest.raises(KeyError, match="unknown problem"):
        get_problem("rosenbrock")
    # instances are built fresh on each request
    first = get_problem("quadratic-2d")
    first.rho = 99.0
    assert get_problem("quadratic-2d").rho == 1.0


def test_sc_lasso_20d_is_deterministic():
    a, b = get_problem("sc-lasso-20d"), get_problem("sc-lasso-20d")
    assert np.array_equal(a.x_star, b.x_star)
    assert_allclose(a.rho, 1.0, rtol=1e-12)
    assert_allclose(a.beta, 0.2, rtol=1e-12)


@pytest.mark.parametrize("name", ["quadratic-2d", "sc-lasso-20d", "skew-rotation"])
def test_descriptor_round_trip(name):
    inst = get_problem(name)
    rebuilt = from_descriptor(inst.descriptor)
    assert np.linalg.norm(rebuilt.x_star - inst.x_star) <= 1e-9
    assert rebuilt.rho == pytest.approx(inst.rho, rel=1e-12)
    assert rebuilt.beta == pytest.approx(inst.beta, rel=1e-12)


@pytest.mark.parametrize("q", [[[2.0, 0], [0, entry]] for entry in (
    True, np.float64(2.0), 10 ** 400, 10 ** 300, math.nan, "1.0", None)] + [[[2.0, 0.0], [1.0]]])
def test_descriptor_numbers_keep_the_entry_rule(q):
    # all-int-or-float entries take one vectorised test, any other type the
    # per-entry rule; both accept and reject as finite_number does, 10**400 and
    # the ragged Q included
    if all(map(finite_number, np.asarray(q, dtype=object).flat)):
        assert np.array_equal(problems._numbers({"Q": q}, "Q"), np.asarray(q, dtype=float))
    else:
        with pytest.raises(ValueError, match="^'Q' must hold finite numbers only$"):
            from_descriptor({"kind": "quadratic", "Q": q, "b": [0, 1]})


def test_descriptor_validation():
    with pytest.raises(ValueError, match="kind"):
        from_descriptor({"Q": [[1.0]]})
    with pytest.raises(ValueError, match="unknown problem kind"):
        from_descriptor({"kind": "huber"})
    with pytest.raises(ValueError, match="dict"):
        from_descriptor("quadratic-2d")
