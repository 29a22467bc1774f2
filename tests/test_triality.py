import math
import warnings

import numpy as np
import pytest

from canondual import dual, model, oracle, solver, triality
from canondual.errors import DimensionMismatch, InvalidMatrix, NotCritical
from canondual.integer import QipInstance
from canondual.model import CanonicalTerm, Problem, TermKind
from canondual.triality import TrialityLabel

from conftest import WELL_S1, WELL_S2, WELL_S3, WELL_X1, double_well, random_problem


def pair_for(p, s):
    return dual.recover_x(p, [s]), np.array([s])


def test_classify_double_well_global_min():
    p = double_well(0.5)
    x, s = pair_for(p, WELL_S1)
    result = triality.classify(p, x, s)
    assert result.label is TrialityLabel.GLOBAL_MIN
    probe = oracle.grid_multistart(p, (-4.0, 4.0), grid_points=4001, local_refine=False)
    assert model.eval_primal(p, x) <= probe.best_value + 1e-6


def test_classify_double_well_local_pair_labels():
    p = double_well(0.5)
    x3, s3 = pair_for(p, WELL_S3)
    assert triality.classify(p, x3, s3).label is TrialityLabel.LOCAL_MAX
    x2, s2 = pair_for(p, WELL_S2)
    assert triality.classify(p, x2, s2).label is TrialityLabel.LOCAL_MIN


def test_classify_symmetric_case_center_is_local_max():
    p = double_well(0.0)
    result = triality.classify(p, [0.0], [-2.0])
    assert result.label is TrialityLabel.LOCAL_MAX
    # sigma = -2 is the edge of the quartic dual domain; Pi_d'' = -1/alpha there
    assert result.evidence["dual_hessian_eigvals"] == [-1.0]


def test_classify_symmetric_case_boundary_pair_is_global_min():
    p = double_well(0.0)
    result = triality.classify(p, [2.0], [0.0])
    assert result.label is TrialityLabel.GLOBAL_MIN


def test_singular_G_reads_the_dual_residual_at_the_given_x():
    # two quartics on [[1]] with f = 0 and x = sqrt 3, where P' = x (x^2 - 3)
    # is zero: sigma_1 + sigma_2 = 0 makes G = 0, so the dual residual is
    # read at x, xi = 3/2 against sigma_k - beta_k for each coordinate
    terms = [CanonicalTerm(TermKind.QUARTIC, np.eye(1), 1.0, beta) for beta in (-2.0, -1.0)]
    p = Problem(n=1, terms=terms, f=np.array([0.0]))
    x = [math.sqrt(3.0)]
    assert dual.assemble_G(p, [-0.5, 0.5]).is_singular()
    result = triality.classify(p, x, [-0.5, 0.5])
    assert result.label is TrialityLabel.GLOBAL_MIN
    assert result.evidence["dual_residual"] <= 1e-15
    # with the multipliers swapped G is still 0, but the residuals are -1 and 1
    with pytest.raises(NotCritical, match=r"dual 1\.000e\+00"):
        triality.classify(p, x, [0.5, -0.5])


def test_classify_rejects_noncritical_pair():
    p = double_well(0.5)
    with pytest.raises(NotCritical):
        triality.classify(p, [1.0], [1.0])
    # a NaN residual compares false against the tolerance, and is not critical
    with pytest.raises(NotCritical):
        triality.classify(p, [np.nan], [WELL_S1])


def test_classify_rejects_a_pair_that_does_not_pair():
    # each side is stationary, but G(sigma) x != f: the well's local minimum
    # with the global dual root, the global minimum with the local maximum's
    well = double_well(0.5)
    x2 = dual.recover_x(well, [WELL_S2])
    for x, s in ((x2, [WELL_S1]), ([WELL_X1], [WELL_S3])):
        with pytest.raises(NotCritical, match="pairing"):
            triality.classify(well, x, s)
    # the README qip: x = (1, 1) is a sign vector with objective -2, the
    # optimum is (1, -1) at -4, and sigma = (2, 0.5) pairs only with it
    qip = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([3.0, 0.0])).to_problem()
    assert triality.classify(qip, [1.0, -1.0], [2.0, 0.5]).label is TrialityLabel.GLOBAL_MIN
    with pytest.raises(NotCritical, match="pairing"):
        triality.classify(qip, [1.0, 1.0], [2.0, 0.5])
    for x in ([1.0], [-1.0, -1.0, 1.0]):
        with pytest.raises(DimensionMismatch):
            triality.classify(qip, x, [2.0, 0.5])


def test_classify_checks_the_dual_point_where_it_enters():
    well = double_well(0.5)
    for s, error in (([np.nan], InvalidMatrix), ([np.inf], InvalidMatrix),
                     ([0.2, 0.3], DimensionMismatch), ([1e308], NotCritical)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing residual is inf, silently
            with pytest.raises(error):
                triality.classify(well, [2.0], s)


def test_local_min_weakens_to_unclassified_when_dims_differ():
    # two wells in one primal dimension: dual count 2 != primal count 1
    terms = [
        CanonicalTerm(TermKind.QUARTIC, np.array([[1.0]]), 1.0, -2.0),
        CanonicalTerm(TermKind.QUARTIC, np.array([[1.0]]), 1.0, -2.0),
    ]
    p = Problem(n=1, terms=terms, f=np.array([0.5]))
    # identical terms split the total dual coordinate u = s1 + s2 evenly;
    # u solves u^3 + 4 u^2 = f^2, the combined-well stationarity condition
    roots = solver.solve_cubic_dual(1.0, 4.0, np.sqrt(0.5))
    u2 = roots[1]
    x = 0.5 / u2
    result = triality.classify(p, [x], [u2 / 2.0, u2 / 2.0])
    assert not result.dims_equal
    assert result.label is TrialityLabel.UNCLASSIFIED


def test_double_max_side_dual_curvature_is_concave():
    p = double_well(0.5)
    x3, s3 = pair_for(p, WELL_S3)
    result = triality.classify(p, x3, s3)
    assert result.label is TrialityLabel.LOCAL_MAX
    dual_eigs = result.evidence.get("dual_hessian_eigvals")
    assert dual_eigs and max(dual_eigs) <= 1e-6


def test_local_max_dual_curvature_is_the_closed_form():
    # Pi_d(s) = -f^2/(2 s) - s^2/(2 alpha) - lam s, so Pi_d'' = -f^2/s^3 - 1/alpha;
    # a finite-difference Hessian misses it by about 2e-11
    p = double_well(0.5)
    x3, s3 = pair_for(p, WELL_S3)
    (eig,) = triality.classify(p, x3, s3).evidence["dual_hessian_eigvals"]
    expected = -0.5 ** 2 / WELL_S3 ** 3 - 1.0
    assert abs(eig - expected) <= 1e-13 * abs(expected)


# ---------------------------------------------------------------- hessian


def test_hessian_double_well_at_center():
    p = double_well(0.0)
    H = triality.hessian_primal(p, [0.0])
    assert H[0, 0] == pytest.approx(-2.0)


def test_hessian_double_well_at_bottom():
    p = double_well(0.0)
    H = triality.hessian_primal(p, [2.0])
    assert H[0, 0] == pytest.approx(4.0)


def test_hessian_plain_quadratic_constant(rng):
    D = rng.standard_normal((3, 3))
    p = Problem(n=3, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, D, -0.8)],
                f=np.zeros(3))
    for _ in range(3):
        x = rng.standard_normal(3)
        assert np.allclose(triality.hessian_primal(p, x), -0.8 * D.T @ D, atol=1e-12)


def test_hessian_matches_finite_differences(rng):
    checked = 0
    while checked < 100:
        p = random_problem(rng, n_max=5)
        x = rng.standard_normal(p.n)
        try:
            H = triality.hessian_primal(p, x)
            fd = oracle.fd_hessian(lambda z: model.eval_primal(p, z), x, h=1e-4)
        except Exception:
            continue
        assert np.max(np.abs(H - fd)) <= 1e-4 * (1.0 + np.max(np.abs(fd)))
        checked += 1


# ------------------------------------------------------------- invariance


def test_classification_invariant_under_term_permutation(rng):
    D1 = rng.standard_normal((2, 2))
    D2 = rng.standard_normal((2, 2))
    f = np.array([0.4, -0.3])
    t1 = CanonicalTerm(TermKind.QUARTIC, D1, 1.0, -1.0)
    t2 = CanonicalTerm(TermKind.EXPONENTIAL, D2, 0.8)
    p = Problem(n=2, terms=[t1, t2], f=f)
    q = Problem(n=2, terms=[t2, t1], f=f)
    rep_p = solver.solve_dual(p)
    rep_q = solver.solve_dual(q)
    assert rep_p.triality_class == rep_q.triality_class
    assert rep_p.primal_value == pytest.approx(rep_q.primal_value, abs=1e-9)
    assert np.allclose(rep_p.sigma_bar, rep_q.sigma_bar[::-1], atol=1e-7)


def test_classification_invariant_under_orthogonal_change(rng):
    D = rng.standard_normal((2, 2))
    f = np.array([0.5, 0.2])
    p = Problem(n=2, terms=[CanonicalTerm(TermKind.QUARTIC, D, 1.0, -1.5)], f=f)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    q = Problem(n=2, terms=[CanonicalTerm(TermKind.QUARTIC, D @ R, 1.0, -1.5)], f=R.T @ f)
    rep_p = solver.solve_dual(p)
    rep_q = solver.solve_dual(q)
    assert rep_p.triality_class == rep_q.triality_class
    assert rep_p.primal_value == pytest.approx(rep_q.primal_value, abs=1e-9)
    assert np.allclose(R.T @ rep_p.x_bar, rep_q.x_bar, atol=1e-6)


def test_global_min_never_contradicted_by_sampling(rng):
    hits = 0
    while hits < 5:
        p = random_problem(rng, n_max=3)
        try:
            rep = solver.solve_dual(p)
        except Exception:
            continue
        if rep.triality_class != TrialityLabel.GLOBAL_MIN.value:
            continue
        X = rng.uniform(-4.0, 4.0, size=(10_000, p.n))
        vals = model.eval_primal_batch(p, X)
        assert np.nanmin(vals) >= rep.primal_value - 1e-6
        hits += 1
