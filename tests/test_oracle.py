import tracemalloc

import numpy as np
import pytest

from canondual import model, oracle
from canondual.errors import TooLarge
from canondual.integer import QipInstance
from canondual.model import CanonicalTerm, Problem, TermKind

from conftest import WELL_X1, double_well


def test_enumerate_signs_textbook():
    res = oracle.enumerate_signs(QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                             f=np.array([3.0, 0.0])))
    assert np.array_equal(res.best_x, [1.0, -1.0])
    assert res.best_value == -4.0
    assert res.samples == 4


def test_enumerate_signs_linear_objective():
    n = 5
    res = oracle.enumerate_signs(QipInstance(Q=np.zeros((n, n)), f=np.ones(n)))
    assert np.array_equal(res.best_x, np.ones(n))
    assert res.best_value == -float(n)


def test_enumerate_signs_constant_objective_lexicographic_tie():
    # x_i^2 = 1 makes the objective constant; smallest assignment wins
    n = 4
    res = oracle.enumerate_signs(QipInstance(Q=np.eye(n), f=np.zeros(n)))
    assert res.best_value == pytest.approx(n / 2.0)
    assert np.array_equal(res.best_x, -np.ones(n))


def test_enumerate_signs_budget_guard():
    with pytest.raises(TooLarge):
        oracle.enumerate_signs(QipInstance(Q=np.eye(25), f=np.zeros(25)))


def _batch_scan(inst: QipInstance, ks) -> tuple:
    """Sign rows of the assignment indices ks (coordinate 0 most significant,
    bit 0 meaning -1) and their objective values."""
    n = inst.n
    X = (((ks[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1) * 2 - 1).astype(float)
    return X, 0.5 * np.einsum("ij,ij->i", X, X @ inst.Q) - X @ inst.f


def test_enumeration_agrees_with_batch_scan(rng, monkeypatch):
    for n in range(1, 17):
        A = rng.standard_normal((n, n))
        inst = QipInstance(Q=0.5 * (A + A.T), f=rng.standard_normal(n))
        X, vals = _batch_scan(inst, np.arange(1 << n))
        for block in (oracle.ENUM_BLOCK, 64):
            monkeypatch.setattr(oracle, "ENUM_BLOCK", block)
            res = oracle.enumerate_signs(inst)
            assert res.best_value == pytest.approx(float(np.min(vals)), abs=1e-9)
            assert np.array_equal(res.best_x, X[int(np.argmin(vals))])


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
@pytest.mark.parametrize("kind", ["zero", "identity", "integer"])
def test_enumeration_ties_keep_the_lexicographically_first(rng, monkeypatch, kind, n, block):
    # with f = 0 every assignment ties with its negation, and Q = 0 or I makes
    # all 2^n of them tie; the integer values are exact in floating point.
    # A 64-value block spreads the ties over many blocks and recomputations.
    if block is not None:
        monkeypatch.setattr(oracle, "ENUM_BLOCK", block)
    if kind == "zero":
        Q = np.zeros((n, n))
    elif kind == "identity":
        Q = np.eye(n)
    else:
        A = rng.integers(-2, 3, (n, n)).astype(float)
        Q = A + A.T
    inst = QipInstance(Q=Q, f=np.zeros(n))
    res = oracle.enumerate_signs(inst)
    X, vals = _batch_scan(inst, np.arange(1 << n))
    first = X[int(np.argmin(vals))]
    assert first[0] == -1.0
    assert np.array_equal(res.best_x, first)
    assert res.best_value == float(np.min(vals))


def test_enumeration_at_the_size_limit(rng):
    n = oracle.ENUM_MAX_N
    A = rng.standard_normal((n, n))
    inst = QipInstance(Q=0.5 * (A + A.T), f=rng.standard_normal(n))
    tracemalloc.start()
    try:
        res = oracle.enumerate_signs(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 2^24 values at once would take 128 MB; the blocks stay far below
    assert peak < 64 * 2 ** 20
    assert res.samples == 1 << n
    _, vals = _batch_scan(inst, rng.integers(0, 1 << n, 1 << 12))
    assert res.best_value <= float(np.min(vals)) + 1e-12 * (1.0 + abs(res.best_value))
    x = res.best_x
    assert set(np.abs(x)) == {1.0}
    assert 0.5 * float(x @ (inst.Q @ x)) - float(inst.f @ x) == pytest.approx(res.best_value,
                                                                             rel=1e-12)


def test_grid_double_well():
    res = oracle.grid_multistart(double_well(0.5), (-4.0, 4.0), grid_points=4001,
                                 local_refine=False)
    assert res.best_x[0] == pytest.approx(WELL_X1, abs=2e-3)
    assert res.method == "grid"
    assert res.samples == 4001


def test_grid_symmetric_pair_of_minima():
    res = oracle.grid_multistart(double_well(0.0), (-4.0, 4.0), grid_points=4001)
    assert abs(res.best_x[0]) == pytest.approx(2.0, abs=1e-6)
    assert res.best_value == pytest.approx(0.0, abs=1e-9)


def test_grid_convex_instance_matches_closed_form(rng):
    D = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    p = Problem(n=2, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, D, 1.0)],
                f=np.array([0.7, -0.4]))
    res = oracle.grid_multistart(p, (-3.0, 3.0), grid_points=41)
    expected = np.linalg.solve(D.T @ D, p.f)
    assert np.allclose(res.best_x, expected, atol=1e-6)


def test_grid_sample_budget(monkeypatch):
    p = double_well(0.5)
    p2 = Problem(n=2, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.eye(2), 1.0)],
                 f=np.zeros(2))
    monkeypatch.setattr(oracle, "GRID_MAX_SAMPLES", 9)
    assert oracle.grid_multistart(p2, (-1.0, 1.0), grid_points=3).samples == 9
    with pytest.raises(TooLarge):
        oracle.grid_multistart(p2, (-1.0, 1.0), grid_points=4)
    with pytest.raises(ValueError):
        oracle.grid_multistart(p, (-1.0, 1.0), grid_points=0)


def test_grid_default_follows_the_budget():
    # 21 points per axis up to n = 4, then the most that fit 2^20 points:
    # 16^5 = 2^20 exactly, and 10^6 < 2^20 < 11^6
    def well(n):
        return Problem(n=n, terms=[CanonicalTerm(TermKind.QUARTIC, np.eye(n), 1.0, -2.0)],
                       f=np.full(n, 0.5))

    assert oracle.grid_multistart(well(2), (-4.0, 4.0)).samples == 21 ** 2
    res = oracle.grid_multistart(well(6), (-4.0, 4.0), local_refine=False)
    assert (res.method, res.samples) == ("grid", 10 ** 6)


@pytest.mark.parametrize("box", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0),
                                 [(-1.0, 1.0), (0.0, np.inf)]],
                         ids=["nan-upper", "inf-upper", "nan-lower", "inf-lower", "per-axis"])
def test_grid_refuses_a_non_finite_box(box):
    # a NaN bound passes the hi > lo test and an infinite one makes a grid
    # of NaN and inf points; both are refused before any sample is drawn
    p = Problem(n=2, terms=[CanonicalTerm(TermKind.QUARTIC, np.eye(2), 1.0, -2.0)],
                f=np.full(2, 0.5))
    with pytest.raises(ValueError, match="finite"):
        oracle.grid_multistart(p, box)


def test_multistart_used_above_grid_cap(rng):
    p = Problem(n=7, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC,
                                          np.eye(7), 1.0)], f=np.zeros(7))
    res = oracle.grid_multistart(p, (-1.0, 1.0), seed=1)
    assert res.method == "multistart"
    with pytest.raises(ValueError, match="grid_points"):
        oracle.grid_multistart(p, (-1.0, 1.0), grid_points=3, seed=1)


def test_fd_gradient_quadratic():
    g = oracle.fd_gradient(lambda z: 0.5 * float(z @ z), np.array([1.0, -2.0, 0.3]))
    assert np.allclose(g, [1.0, -2.0, 0.3], atol=1e-8)


def test_fd_gradient_double_well_matches_symbolic():
    p = double_well(0.5)
    g = oracle.fd_gradient(lambda z: model.eval_primal(p, z), np.array([1.0]))
    # d/dx [0.5(0.5x^2-2)^2 - 0.5x] = x(0.5x^2-2) - 0.5
    assert g[0] == pytest.approx(1.0 * (0.5 - 2.0) - 0.5, abs=1e-8)


def test_legendre_check_quartic_samples():
    t = CanonicalTerm(TermKind.QUARTIC, np.array([[1.0]]), 1.0, -2.0)
    rep = oracle.legendre_check(t, [0.0, 1.0, 3.0])
    assert rep.max_pairing_residual <= 1e-12
    assert rep.max_grid_gap <= 1e-4


def test_legendre_check_exponential_unit_point():
    t = CanonicalTerm(TermKind.EXPONENTIAL, np.array([[1.0]]), 1.0)
    rep = oracle.legendre_check(t, [0.0])
    # map at 0 gives sigma = 1, conjugate -1, pairing 0 + (-1) = 0
    assert rep.max_pairing_residual <= 1e-12


def test_legendre_check_xlogx_pins_conjugate_form():
    t = CanonicalTerm(TermKind.XLOGX, np.array([[1.0]]), 1.0)
    rep = oracle.legendre_check(t, [1.0])
    # at measure 1 the map gives sigma = 1 and the grid supremum must agree
    # with exp(sigma - 1) = 1
    assert rep.max_pairing_residual <= 1e-12
    assert rep.max_grid_gap <= 1e-4
