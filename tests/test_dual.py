import warnings

import numpy as np
import pytest

from canondual import dual, model, oracle, solver, triality
from canondual.dual import Membership
from canondual.errors import CanonDualError, DimensionMismatch, InvalidMatrix, RangeViolation, SingularG
from canondual.integer import QipInstance
from canondual.model import CanonicalTerm, Problem, TermKind, Variables

from conftest import WELL_S1, WELL_X1, double_well, random_problem, random_qip

QIP2 = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([3.0, 0.0]))


# ------------------------------------------------------------ assembly


@pytest.mark.parametrize("kind", [TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX])
def test_conjugate_array_forms_equal_the_scalar_calls(kind):
    # bare_grads and bare_hessians take some conjugate derivatives as
    # columns over a stack: a quartic term's gradient s/alpha - beta and
    # Hessian 1/alpha, an exponential one's Hessian 1/s.  Each row equals
    # model.conj_grad and model.conj_hess at the row alone, to the bit, over
    # a seeded draw with its extremes.  The exponential gradient (a log) and
    # the xlogx derivatives (an exp) stay scalar calls: np.log and np.exp
    # need not round as math.log and math.exp do
    alpha, beta = (0.7, -1.3) if kind is TermKind.QUARTIC else (0.7, 0.0)
    term = CanonicalTerm(kind, np.array([[1.0, -0.5], [0.25, 2.0]]), alpha, beta)
    p = Problem(n=2, terms=[term], f=np.array([0.3, -0.2]))
    rng = np.random.default_rng(5)
    if kind is TermKind.XLOGX:
        s = np.concatenate([rng.normal(0.0, 3.0, 60), [-1e308, -700.0, 0.0, 5e-324, 500.0, 1e308]])
    else:
        edge = alpha * beta  # s/alpha - beta = 0: the quartic's edge, the exponential's 0
        s = np.concatenate([edge + alpha * rng.exponential(2.0, 60),
                            edge + alpha * np.array([5e-324, 1e-300, 1e-8, 1e8, 1e300, 1e308])])
        if kind is TermKind.QUARTIC:
            s = np.append(s, edge)
    S = s[:, None]
    X = rng.standard_normal((len(S), 2))
    A = rng.standard_normal((len(S), 2, 1))
    G = np.broadcast_to(np.eye(2), (len(S), 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1/s and s/alpha overflow at the extremes
        H = dual.bare_hessians(p, S, G, A)
        g = dual.bare_grads(p, S, X, A)
        H_alone = -np.matmul(A.swapaxes(-1, -2), np.linalg.solve(G, A))
        g_alone = 0.5 * (X[:, None, :] @ A)[:, 0, :]
        for r, v in enumerate(s.tolist()):
            H_alone[r, 0, 0] -= model.conj_hess(term, v)
            g_alone[r, 0] -= model.conj_grad(term, v)
    assert H.tobytes() == H_alone.tobytes()
    assert g.tobytes() == g_alone.tobytes()


def test_assemble_G_qip_substitution():
    p = QIP2.to_problem()
    gm = dual.assemble_G(p, [2.0, 0.5])
    assert np.allclose(gm.G, [[4.0, 1.0], [1.0, 1.0]], atol=1e-12)


def test_assemble_G_checks_the_point_and_refuses_a_nonfinite_G():
    two_wells = Problem(n=1, terms=[CanonicalTerm(TermKind.QUARTIC, np.eye(1), 1.0, -2.0)] * 2,
                        f=np.array([0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is refused, not warned about
        # each coordinate is finite, their sum in G overflows
        with pytest.raises(InvalidMatrix):
            dual.assemble_G(two_wells, [1e308, 1e308])
        with pytest.raises(InvalidMatrix):
            dual.assemble_G(QIP2.to_problem(), [np.inf, 1.0])
    with pytest.raises(DimensionMismatch):
        dual.assemble_G(two_wells, [1.0])
    assert np.isfinite(dual.assemble_G(two_wells, [1e307, 1e307]).G).all()


def _symmetry_problems(rng):
    problems = [random_problem(rng) for _ in range(12)]
    problems += [random_qip(rng, n).to_problem() for n in (3, 6, 9)]
    factor = rng.standard_normal((2, 3))
    problems.append(Problem(n=3, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.eye(3), 1.0),
                                        CanonicalTerm(TermKind.QUARTIC, factor, 0.7, -0.5)],
                            f=rng.standard_normal(3), variables=Variables.SIGN_INTEGER))
    problems.append(solver._perturbed_problem(problems[0], 0.1, rng.standard_normal(problems[0].n)))
    return problems


def test_package_matrices_are_exactly_symmetric(rng):
    # linalg.eigh takes them as they are: no check and no symmetrization
    for p in _symmetry_problems(rng):
        for _ in range(5):
            G = dual.operator(p, rng.standard_normal(p.dual_dim))
            assert np.array_equal(G, G.T)
    base = rng.standard_normal((7, 5))
    for factor in (base, np.asfortranarray(base), base[::2, ::-1], base.T[1::2].T):
        Q = CanonicalTerm(TermKind.QUARTIC, factor, 1.0).Q
        assert np.array_equal(Q, Q.T)


def test_primal_hessian_is_exactly_symmetric_at_report_points(rng):
    checked = 0
    for p in _symmetry_problems(rng):
        if p.is_sign_integer:
            continue
        try:
            rep = solver.solve_dual(p)
        except CanonDualError:
            continue
        H = triality.hessian_primal(p, rep.x_bar)
        assert np.array_equal(H, H.T)
        checked += 1
    assert checked >= 8


def test_assemble_G_double_well_scalar():
    p = double_well(0.5)
    gm = dual.assemble_G(p, [1.0])
    assert gm.G.shape == (1, 1)
    assert gm.G[0, 0] == pytest.approx(1.0)


def test_assemble_G_zero_coordinates_leaves_plain_block():
    rng = np.random.default_rng(2)
    D1 = rng.standard_normal((2, 2))
    D2 = rng.standard_normal((2, 2))
    p = Problem(
        n=2,
        terms=[
            CanonicalTerm(TermKind.PLAIN_QUADRATIC, D1, -0.7),
            CanonicalTerm(TermKind.QUARTIC, D2, 1.0, 0.0),
        ],
        f=np.zeros(2),
    )
    gm = dual.assemble_G(p, [0.0])
    assert np.allclose(gm.G, -0.7 * D1.T @ D1, atol=1e-12)


# ----------------------------------------------------- total complementary


def test_Xi_double_well_closed_form():
    # 0.5*s*x^2 - (0.5 s^2 + 2 s) - 0.5 x, the conjugate matching the
    # radial-well dual; verified below by the sampling identity.
    p = double_well(0.5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, s = rng.standard_normal(), rng.uniform(-1.9, 3.0)
        expected = 0.5 * s * x * x - (0.5 * s * s + 2.0 * s) - 0.5 * x
        assert dual.eval_Xi(p, [x], [s]) == pytest.approx(expected, abs=1e-12)


def test_Xi_matches_primal_through_duality_map():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = random_problem(rng, n_max=6)
        x = rng.standard_normal(p.n)
        try:
            s = model.dual_map(p, x)
        except Exception:
            continue
        pi = model.eval_primal(p, x)
        assert dual.eval_Xi(p, x, s) == pytest.approx(pi, rel=1e-9, abs=1e-9 * (1 + abs(pi)))


def test_Xi_qip_closed_form():
    p = QIP2.to_problem()
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(2)
        sig = rng.uniform(0.1, 2.0, 2)
        G = QIP2.Q + 2.0 * np.diag(sig)
        expected = 0.5 * x @ G @ x - x @ QIP2.f - np.sum(sig)
        assert dual.eval_Xi(p, x, sig) == pytest.approx(expected, abs=1e-9)


def test_Xi_qip_equals_primal_on_signs_for_any_sigma():
    p = QIP2.to_problem()
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.choice([-1.0, 1.0], 2)
        sig = rng.uniform(0.0, 3.0, 2)
        assert dual.eval_Xi(p, x, sig) == pytest.approx(QIP2.objective(x), abs=1e-9)


def test_gap_value():
    p = QIP2.to_problem()
    assert dual.gap_value(p, [1.0, -1.0], [2.0, 0.5]) == pytest.approx(1.5)
    assert dual.gap_value(p, [0.0, 0.0], [2.0, 0.5]) == 0.0


def test_gap_nonnegative_when_not_outside():
    rng = np.random.default_rng(6)
    p = QIP2.to_problem()
    for _ in range(50):
        sig = rng.uniform(0.0, 3.0, 2)
        if dual.in_S_plus(p, sig) is Membership.OUTSIDE:
            continue
        x = rng.standard_normal(2) * 3
        assert dual.gap_value(p, x, sig) >= -1e-8 * (1 + x @ x)


# ------------------------------------------------------------- dual value


def test_eval_dual_symmetric_well_closed_form():
    p = double_well(0.0)
    for s in (-2.0, -1.0, 0.5, 1.5):
        assert dual.eval_dual(p, [s]) == pytest.approx(-0.5 * s * s - 2.0 * s, abs=1e-12)
    # concave parabola peaks at the domain boundary s = -2
    grid = np.linspace(-2.0, 1.0, 31)
    vals = [dual.eval_dual(p, [s]) for s in grid]
    assert np.argmax(vals) == 0


def test_eval_dual_qip_example():
    p = QIP2.to_problem()
    assert dual.eval_dual(p, [2.0, 0.5]) == pytest.approx(-4.0, abs=1e-9)


def test_eval_dual_matches_primal_at_cubic_root():
    p = double_well(0.5)
    assert dual.eval_dual(p, [WELL_S1]) == pytest.approx(
        model.eval_primal(p, [WELL_X1]), abs=1e-8
    )
    assert dual.eval_Xi(p, [WELL_X1], [WELL_S1]) == pytest.approx(
        model.eval_primal(p, [WELL_X1]), abs=1e-8
    )


def test_eval_dual_range_violation_signals_inadmissible_point():
    p = double_well(0.5)
    with pytest.raises(RangeViolation):
        dual.eval_dual(p, [0.0])


# -------------------------------------------------------------- gradient


def test_grad_dual_zero_at_critical_point():
    p = double_well(0.5)
    assert np.linalg.norm(dual.grad_dual(p, [WELL_S1])) <= 1e-7


def test_grad_dual_double_well_arithmetic():
    p = double_well(0.5)
    g = dual.grad_dual(p, [1.0])
    # x = 0.5, measure 0.5*x^2 = 0.125, inverse map sigma/alpha - beta = 3
    assert g[0] == pytest.approx(0.125 - 3.0, abs=1e-12)


def test_grad_dual_qip_component_form():
    p = QIP2.to_problem()
    g = dual.grad_dual(p, [2.0, 0.5])
    assert np.allclose(g, [0.0, 0.0], atol=1e-9)


def test_grad_dual_singular_raises():
    p = double_well(0.5)
    with pytest.raises(SingularG):
        dual.grad_dual(p, [0.0])


def test_grad_dual_matches_finite_differences(rng):
    checked = 0
    while checked < 100:
        p = random_problem(rng, n_max=5)
        s_center = np.abs(rng.standard_normal(p.dual_dim)) + 0.5
        gm = dual.assemble_G(p, s_center)
        if gm.min_eig <= 1e-4:
            continue
        try:
            g = dual.grad_dual(p, s_center)
            fd = oracle.fd_gradient(lambda z: dual.eval_dual(p, z), s_center, h=1e-6)
        except Exception:
            continue
        assert np.max(np.abs(g - fd)) <= 1e-4 * (1.0 + np.max(np.abs(fd)))
        checked += 1


# -------------------------------------------------------------- recovery


def test_recover_x_qip_matches_enumeration():
    p = QIP2.to_problem()
    x = dual.recover_x(p, [2.0, 0.5])
    assert np.allclose(x, [1.0, -1.0], atol=1e-10)
    best = oracle.enumerate_signs(QIP2)
    assert np.allclose(x, best.best_x)


def test_recover_x_zero_input():
    p = double_well(0.0)
    assert dual.recover_x(p, [1.0]) == pytest.approx(0.0)


def test_recover_x_cubic_root_solves_primal_stationarity():
    p = double_well(0.5)
    x = dual.recover_x(p, [WELL_S1])[0]
    assert x == pytest.approx(0.5 / WELL_S1, abs=1e-12)
    assert x**3 - 4.0 * x - 1.0 == pytest.approx(0.0, abs=1e-10)


# ------------------------------------------------------------ membership


def test_in_S_plus_examples():
    p = QIP2.to_problem()
    assert dual.in_S_plus(p, [2.0, 0.5]) is Membership.INTERIOR
    well = double_well(0.0)
    assert dual.in_S_plus(well, [0.0]) is Membership.BOUNDARY
    assert dual.in_S_plus(well, [-2.0]) is Membership.OUTSIDE


def test_in_S_plus_sigma_zero_is_boundary():
    # operator strictly positive definite but one multiplier pinned at zero
    inst = QipInstance(Q=np.eye(2), f=np.array([1.0, 1.0]))
    p = inst.to_problem()
    assert dual.in_S_plus(p, [1.0, 0.0]) is Membership.BOUNDARY
