import dataclasses
import hashlib
import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

from canondual import dual, integer, oracle, solver
from canondual.dual import Membership
from canondual.errors import EmptyInterior, MaxIterations, SingularG
from canondual.integer import QipInstance
from canondual.model import CanonicalTerm, Problem, TermKind, Variables
from canondual.solver import SolverConfig

from conftest import WELL_FC, WELL_S1, WELL_X1, double_well, random_problem, random_qip


# --------------------------------------------------------------- cubic


def test_cubic_symmetric_case_roots():
    roots = solver.solve_cubic_dual(1.0, 2.0, 0.0)
    assert np.allclose(roots, [0.0, 0.0, -2.0], atol=1e-12)


def test_cubic_small_input_three_roots():
    roots = solver.solve_cubic_dual(1.0, 2.0, 0.5)
    assert len(roots) == 3
    assert roots[0] == pytest.approx(WELL_S1, abs=1e-12)
    assert roots[0] >= 0.0 >= roots[1] >= roots[2]
    for r in roots:
        assert abs((r + 2.0) * r * r - 0.125) <= 1e-10


def test_cubic_large_input_single_root():
    roots = solver.solve_cubic_dual(1.0, 2.0, 2.0)
    assert len(roots) == 1 and roots[0] > 0.0


def test_cubic_residual_property(rng):
    for _ in range(50):
        alpha = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.2, 3.0))
        fn = float(rng.uniform(0.0, 4.0))
        rhs = 0.5 * fn * fn
        for r in solver.solve_cubic_dual(alpha, lam, fn):
            assert abs((r / alpha + lam) * r * r - rhs) <= 1e-9 * (1.0 + rhs)


# ------------------------------------------------------------ main solve


def test_solve_dual_double_well_global_min():
    rep = solver.solve_dual(double_well(0.5))
    assert rep.status == "interior"
    assert rep.sigma_bar[0] == pytest.approx(WELL_S1, abs=1e-9)
    assert rep.x_bar[0] == pytest.approx(WELL_X1, abs=1e-7)
    assert rep.triality_class == "global_min"
    assert rep.duality_residual <= 1e-7 * (1.0 + abs(rep.primal_value))


def test_double_well_x_bar_is_exact_under_every_barrier_setting():
    # the report refines x once in extended precision, so the bits of x_bar
    # are a property of the problem, not of where the barrier iterates ended
    p = double_well(0.5)
    landed = {float(solver.solve_dual(p, SolverConfig(barrier_weight=float(w),
                                                      barrier_shrink=float(r))).x_bar[0])
              for w in np.linspace(0.5, 2.0, 31) for r in np.linspace(0.1, 0.3, 5)}
    assert landed == {WELL_X1}


def test_refinement_keeps_x_where_the_step_fails_or_does_not_help():
    p = double_well(0.5)
    assert solver._refine_x(p, np.array([WELL_X1 + 1e-9]))[0] == WELL_X1
    assert solver._refine_x(p, np.array([WELL_X1]))[0] == WELL_X1
    # Phi' of an xlogx term is undefined at xi = 0
    xlogx = Problem(n=1, terms=[CanonicalTerm(TermKind.XLOGX, np.eye(1), 1.0)], f=np.array([0.5]))
    assert solver._refine_x(xlogx, np.zeros(1))[0] == 0.0


def test_solve_dual_quasiconvex_side_unique_point():
    rep = solver.solve_dual(double_well(-2.0))
    assert rep.status == "interior"
    points = solver.dual_critical_points(double_well(-2.0), n_starts=10)
    assert len(points) == 1
    assert points[0][2] is Membership.INTERIOR


def test_solve_dual_symmetric_case_reports_boundary():
    rep = solver.solve_dual(double_well(0.0))
    assert rep.status == "boundary"
    assert rep.boundary_flag
    assert abs(rep.sigma_bar[0]) <= 1e-6


def test_solve_dual_zero_dual_dimension_convex_quadratic(rng):
    D = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    p = Problem(n=3, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, D, 1.0)],
                f=rng.standard_normal(3))
    rep = solver.solve_dual(p)
    assert rep.status == "interior"
    expected = np.linalg.solve(D.T @ D, p.f)
    assert np.allclose(rep.x_bar, expected, atol=1e-8)


def test_monotone_ascent_of_barrier_objective():
    p = double_well(0.5)
    cfg = SolverConfig()
    s, _ = solver._phase1(p)
    mu = 0.3
    values = [dual.factor_point(p, s).barrier(mu)]
    for _ in range(6):
        s, _, _ = solver._damped_newton(s, *solver._barrier(p, mu), tol=1e-14, max_iter=1,
                                        step_tol=cfg.step_tol)
        values.append(dual.factor_point(p, s).barrier(mu))
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def _barrier_problem(name: str) -> Problem:
    rng = np.random.default_rng(11)
    n = 3

    def factor(m):
        return rng.standard_normal((m, n)) / np.sqrt(n)

    plain = CanonicalTerm(TermKind.PLAIN_QUADRATIC, factor(n), 1.0)
    if name == "continuous":
        terms = [plain,
                 CanonicalTerm(TermKind.QUARTIC, factor(2), 0.8, -1.0),
                 CanonicalTerm(TermKind.EXPONENTIAL, factor(1), 0.6),
                 CanonicalTerm(TermKind.XLOGX, factor(n), 1.2)]
        return Problem(n=n, terms=terms, f=rng.standard_normal(n))
    if name == "sign_qp":
        return random_qip(rng, 4).to_problem()
    # sign-integer with a quartic term: exercises the term/sigma Hessian block
    terms = [plain, CanonicalTerm(TermKind.QUARTIC, factor(2), 0.7, -0.5)]
    return Problem(n=n, terms=terms, f=rng.standard_normal(n),
                   variables=Variables.SIGN_INTEGER)


@pytest.mark.parametrize("name", ["continuous", "sign_qp", "sign_quartic", "no_dual"])
def test_coordinate_rows_assemble_the_operator(name, rng):
    # G(s) = plain_block + sum_c s_c w_c B_c'B_c, with one block of B' per
    # coordinate: 2-, 1- and 3-row factors, n sign columns, or none at all
    if name == "no_dual":
        p = Problem(n=3, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC,
                                              rng.standard_normal((3, 3)), 1.0)], f=np.ones(3))
    else:
        p = _barrier_problem(name)
    rows = p.coordinate_rows
    ends = list(rows.starts[1:]) + [rows.Bt.shape[1]]
    assert len(rows.starts) == len(rows.weights) == p.dual_dim
    for _ in range(5):
        s = rng.standard_normal(p.dual_dim)
        G = p.plain_block.copy()
        for c, (a, b) in enumerate(zip(rows.starts, ends)):
            Bc = rows.Bt[:, a:b].T
            G += s[c] * rows.weights[c] * (Bc.T @ Bc)
        expected = dual.operator(p, s)
        assert np.max(np.abs(G - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected)))


def _kind_slack(kind: str, alpha: float, beta: float, s: float) -> float:
    """The dual domain of one coordinate, kind by kind."""
    if kind == "quartic":  # s/alpha >= beta
        return abs(alpha) * (s / alpha - beta)
    if kind == "exponential":  # s/alpha > 0
        return abs(alpha) * (s / alpha)
    return s  # a sign multiplier, s >= 0


def _kind_lift(kind: str, alpha: float, beta: float, margin: float) -> float:
    """The point at the margin inside the domain edge, kind by kind."""
    sign = 1.0 if alpha > 0 else -1.0
    if kind == "quartic":
        return alpha * beta + sign * margin
    if kind == "exponential":
        return sign * margin
    return margin


@pytest.mark.parametrize("coords, signs", [
    ([("quartic", 1.3, -2.0)], False), ([("quartic", -0.7, 0.5)], False),
    ([("quartic", 2.0, 0.0)], False), ([("quartic", -1.5, -1.0)], False),
    ([("exponential", 0.8, 0.0)], False), ([("exponential", -1.2, 0.0)], False),
    ([("xlogx", 1.1, 0.0)], False), ([], True),
    ([("quartic", 0.9, 1.0), ("xlogx", -0.6, 0.0), ("exponential", 1.7, 0.0)], True),
])
def test_domain_table_matches_the_per_kind_bounds(coords, signs, rng):
    n = 3
    terms = [CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.eye(n), 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an exponential term with alpha < 0 warns
        terms += [CanonicalTerm(TermKind(kind), rng.standard_normal((2, n)), alpha, beta)
                  for kind, alpha, beta in coords]
    p = Problem(n=n, terms=terms, f=np.ones(n),
                variables=Variables.SIGN_INTEGER if signs else Variables.CONTINUOUS)
    coords = coords + [("sign", 1.0, 0.0)] * (n if signs else 0)
    bounded = [c for c, (kind, _, _) in enumerate(coords) if kind != "xlogx"]
    assert p.coordinate_rows.index.tolist() == bounded
    margin, lifted_any, kept_any = 0.3, False, False
    for _ in range(10):
        # around each edge, so that some coordinates fall below the margin
        s = np.array([alpha * beta for _, alpha, beta in coords]) + rng.uniform(-1.0, 1.0, len(coords))
        slacks = dual.domain_slacks(p, s)
        assert slacks.tolist() == [_kind_slack(*coords[c], s[c]) for c in bounded]
        projected = solver._project_domain(p, s, margin)
        for c, coord in enumerate(coords):
            if c in bounded and _kind_slack(*coord, s[c]) < margin:
                assert projected[c] == _kind_lift(*coord, margin)
                lifted_any = True
            else:
                assert projected[c].tobytes() == s[c].tobytes()
                kept_any = True
    assert kept_any and lifted_any == bool(bounded)


@pytest.mark.parametrize("mu", [0.5, 0.0])
@pytest.mark.parametrize("name", ["continuous", "sign_qp", "sign_quartic"])
def test_barrier_derivatives_match_finite_differences(name, mu):
    p = _barrier_problem(name)
    cfg = SolverConfig()
    # the mu = 1 barrier center keeps every difference step inside the region
    s, _, _ = solver._damped_newton(solver._phase1(p)[0], *solver._barrier(p, 1.0),
                                    tol=1e-10, max_iter=30, step_tol=cfg.step_tol)
    assert dual.assemble_G(p, s).min_eig > 1e-2
    g, H = dual.factor_point(p, s).barrier_derivs(mu)

    def value(z):
        return dual.factor_point(p, z).barrier(mu)

    fd_g = oracle.fd_gradient(value, s, h=1e-6)
    fd_H = oracle.fd_hessian(value, s, h=1e-4)
    assert np.max(np.abs(g - fd_g)) <= 1e-6 * (1.0 + np.max(np.abs(fd_g)))
    assert np.max(np.abs(H - fd_H)) <= 1e-5 * (1.0 + np.max(np.abs(fd_H)))


def test_bare_hessian_matches_finite_differences(rng):
    # the Hessian the polish steps on, read from the Cholesky-factored point
    for _ in range(20):
        p = random_problem(rng, n_max=4)
        s = np.abs(rng.standard_normal(p.dual_dim)) + 1.0
        gm = dual.assemble_G(p, s)
        if gm.min_eig <= 1e-4:
            continue
        _, H = dual.factor_point(p, s).barrier_derivs(0.0)
        fd = oracle.fd_hessian(lambda z: dual.eval_dual(p, z), s, h=1e-4)
        assert np.max(np.abs(H - fd)) <= 1e-3 * (1.0 + np.max(np.abs(fd)))


def test_lu_point_derivatives_match_finite_differences(rng):
    # the root search steps on LU points, where G may be indefinite; check
    # points whose G has a negative eigenvalue and none near zero
    checked = 0
    for _ in range(80):
        p = random_problem(rng, n_max=4)
        s = 2.0 * rng.standard_normal(p.dual_dim)
        point = dual.factor_point(p, s, cholesky=False)
        if point is None:
            continue
        w = np.linalg.eigvalsh(point.G)
        if w[0] >= -0.05 or np.min(np.abs(w)) <= 0.05:
            continue
        assert dual.factor_point(p, s) is None  # outside the certified region
        g, H = point.barrier_derivs(0.0)
        fd_g = oracle.fd_gradient(lambda z: dual.eval_dual(p, z), s, h=1e-6)
        fd_H = oracle.fd_hessian(lambda z: dual.eval_dual(p, z), s, h=1e-4)
        assert np.max(np.abs(g - fd_g)) <= 1e-6 * (1.0 + np.max(np.abs(fd_g)))
        assert np.max(np.abs(H - fd_H)) <= 1e-3 * (1.0 + np.max(np.abs(fd_H)))
        checked += 1
    assert checked >= 10


def test_barrier_value_rejects_points_outside_the_region():
    # indefinite operator, positive multipliers: G = [[0.2, 1], [1, 0.2]]
    qip = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([1.0, 0.0]))
    p = qip.to_problem()
    assert dual.factor_point(p, np.array([0.1, 0.1])) is None
    inside = dual.factor_point(p, np.array([1.0, 1.0]))
    assert inside is not None and math.isfinite(inside.barrier(0.3))

    # positive-definite operator G = 2 + s with the quartic slack s - 1 <= 0
    p = Problem(n=1, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.array([[2.0 ** 0.5]]), 1.0),
                            CanonicalTerm(TermKind.QUARTIC, np.array([[1.0]]), 1.0, 1.0)],
                f=np.array([0.5]))
    for s in (0.5, 1.0):
        assert dual.assemble_G(p, [s]).min_eig > 0.0
        assert dual.factor_point(p, np.array([s])) is None  # the point is rejected at every mu
    inside = dual.factor_point(p, np.array([1.5]))
    assert inside is not None
    assert math.isfinite(inside.barrier(0.3)) and math.isfinite(inside.barrier(0.0))


# ------------------------------------------------------------ line search


@pytest.mark.parametrize("cholesky", [True, False], ids=["cholesky", "lu"])
@pytest.mark.parametrize("name", ["continuous", "sign_qp", "sign_quartic"])
def test_line_search_screen_hands_over_the_pointwise_slacks(name, cholesky, rng):
    # the trials of a line search, the first ones made one at a time and the
    # rest screened as one stack, are those of halving t one step at a time,
    # bit for bit, and each screened point gets its own slacks
    p = _barrier_problem(name)
    s, _ = solver._phase1(p)
    screen = partial(dual.screen, p, cholesky=cholesky)
    refused_any, edge_steps = False, set()
    # t = 2^-k along -2^k s puts each sign multiplier and exponential
    # coordinate exactly on its edge, slack 0: at t = 1/2 among the single
    # trials, at t = 2^-_SINGLE_STEPS in the stack
    edges = [-2.0 * s, -math.ldexp(1.0, solver._SINGLE_STEPS) * s]
    for d in edges + [scale * (1.0 + np.abs(s)) * rng.standard_normal(p.dual_dim)
                      for scale in (10.0, 10.0, 1e3, 1e3, 1e3)]:
        handed = []

        def trial(z, slacks=None):
            handed.append((z, slacks))
            return None

        # g = d with H = -I makes d the Newton direction; every trial is
        # refused, so the line search runs through all its steps
        solver._damped_newton(s, trial, screen, lambda state: 0.0, lambda g, d, m: 1.0,
                              lambda state: (d, -np.eye(p.dual_dim)), tol=0.0, max_iter=1,
                              state="start")
        expected, t = [], 1.0
        for k in range(solver._HALVINGS):
            z = s + t * d
            slacks = dual.domain_slacks(p, z)
            if (slacks == 0.0).any():
                edge_steps.add(t)
            if k < solver._SINGLE_STEPS:
                expected.append((z, None))
            elif not ((slacks <= 0.0).any() if cholesky else (slacks < 0.0).any()):
                expected.append((z, slacks))
            else:
                refused_any = True
            t *= 0.5
        assert len(handed) == len(expected)
        for (z, slacks), (z_expected, slacks_expected) in zip(handed, expected):
            assert z.tobytes() == z_expected.tobytes()
            if slacks_expected is None:
                assert slacks is None
            else:
                assert slacks.tobytes() == slacks_expected.tobytes()
    assert refused_any
    assert {0.5, math.ldexp(1.0, -solver._SINGLE_STEPS)} <= edge_steps


@pytest.mark.parametrize("search", ["root", "barrier"])
def test_refused_trials_build_only_what_the_merit_reads(search):
    # a trial the line search refuses carries its merit's inputs only: the
    # root search's gradient, the barrier's value; no L^-1 and no Hessian
    if search == "root":
        p = double_well(1.75)  # one real root: most root searches never converge
        callbacks, starts = solver._stationarity(p, certified=False), solver._ladder_starts(p)
    else:
        p = _barrier_problem("continuous")
        callbacks, starts = solver._barrier(p, 0.01), [solver._phase1(p)[0]]
    trial, screen, merit, slope, derivatives = callbacks
    made, derived = [], []

    def recording_trial(*args, **kwargs):
        point = trial(*args, **kwargs)
        made.append(point)
        return point

    def recording_derivatives(point):
        derived.append(point)
        return derivatives(point)

    ends = []
    for s in starts:
        ends.append(solver._damped_newton(s, recording_trial, screen, merit, slope,
                                          recording_derivatives, tol=1e-12, max_iter=60)[1])
    kept = {id(point) for point in derived + ends}
    refused = [point for point in made if point is not None and id(point) not in kept]
    assert refused
    for point in refused:
        assert not {"Linv", "bare_hess", "logdet_derivs"} & set(vars(point))
        assert ("bare_grad" in vars(point)) == (search == "root")
    assert all("bare_hess" in vars(point) for point in derived)


@pytest.mark.parametrize("name", ["continuous", "sign_qp", "sign_quartic"])
def test_barrier_point_serves_every_mu_alike(name):
    # an outer step reuses the point the last one ended at: its cached pieces
    # must give the same bits as a freshly factorized point at the new mu
    p = _barrier_problem(name)
    s, _ = solver._phase1(p)
    carried = dual.factor_point(p, s)
    for mu in (1.0, 0.2, 0.0):
        carried.barrier_derivs(mu)
    fresh = dual.factor_point(p, s)
    for mu in (0.04, 0.0):
        assert carried.barrier(mu) == fresh.barrier(mu)
        for a, b in zip(carried.barrier_derivs(mu), fresh.barrier_derivs(mu)):
            assert np.array_equal(a, b)


def test_interior_solutions_beat_grid_oracle(rng):
    for _ in range(10):
        p = random_problem(rng, n_max=3)
        try:
            rep = solver.solve_dual(p)
        except (EmptyInterior, MaxIterations):
            continue
        if rep.status != "interior":
            continue
        probe = oracle.grid_multistart(p, (-4.0, 4.0), grid_points=25, seed=0)
        assert rep.primal_value <= probe.best_value + 1e-6


def _continuous_problem(rng: np.random.Generator, n: int) -> Problem:
    """A plain quadratic term plus two terms drawn from quartic, exponential
    and xlogx, with square N(0, 1)/sqrt(n) factors."""
    nonplain = (TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX)
    kinds = [TermKind.PLAIN_QUADRATIC] + [nonplain[int(k)] for k in rng.integers(0, 3, 2)]
    terms = []
    for kind in kinds:
        D = rng.standard_normal((n, n)) / np.sqrt(n)
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(-1.5, 1.0)) if kind is TermKind.QUARTIC else 0.0
        terms.append(CanonicalTerm(kind=kind, factor=D, alpha=alpha, beta=beta))
    return Problem(n=n, terms=terms, f=0.6 * rng.standard_normal(n))


def _report_sha(rep) -> str:
    text = json.dumps(dataclasses.asdict(rep), default=lambda a: a.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def test_solve_reports_match_pinned():
    # SHA-256 of the report's JSON fields in declaration order; any change to the arithmetic
    # of a solve shows here
    rng = np.random.default_rng(2)
    cont16, cont32 = _continuous_problem(rng, 16), _continuous_problem(rng, 32)
    assert [t.kind for t in cont32.terms[1:]] == [TermKind.QUARTIC, TermKind.XLOGX]
    certified = random_qip(np.random.default_rng(2), 16).to_problem()
    symmetric = random_qip(np.random.default_rng(2), 8, f_style="zero").to_problem()
    reports = {
        "continuous n=16": solver.solve_dual(cont16),
        "continuous n=32": solver.solve_dual(cont32),
        "certified qip n=16": solver.solve_dual(certified),
        "symmetric qip n=8": solver.perturbed_solve(symmetric),
    }
    assert reports["symmetric qip n=8"].perturb_rounds == 10
    # the outcome fields, which the arithmetic must not move
    interior = ("interior", "global_min", False)
    assert {name: (rep.status, rep.triality_class, rep.boundary_flag,
                   "".join("+" if v > 0 else "-" for v in rep.x_bar))
            for name, rep in reports.items()} == {
        "continuous n=16": interior + ("+---+--++++---+-",),
        "continuous n=32": interior + ("-+-+--+--+-+---++---+++++-++----",),
        "certified qip n=16": interior + ("+" * 16,),
        "symmetric qip n=8": ("perturbation", "boundary_degenerate", True, "++----+-"),
    }
    assert {name: _report_sha(rep) for name, rep in reports.items()} == {
        "continuous n=16": "1f2406790fa223d677c246cea7b0cba7177944fa7a5f901a71f22c3028928424",
        "continuous n=32": "e9e67d8dce05c6c206579bcb686ce00c920a65e42203bd61c483893e7e7bab1c",
        "certified qip n=16": "5922fcf96cfa9b05f257c4c7819fdc363745d57e76b3995f363ca2edbf3ae23f",
        "symmetric qip n=8": "1627921cba4ce377ab0b63f10301034f27409fe7c6cc39cbb8d5e3a09d404b64",
    }


def _newton_end_points(monkeypatch, problems) -> list:
    """Every point a Newton run of solving each problem ends at: each outer
    barrier step and the polish."""
    points = []
    newton = solver._damped_newton

    def recording(*args, **kwargs):
        s, state, its = newton(*args, **kwargs)
        if isinstance(state, dual.DualPoint):
            points.append(state)
        return s, state, its

    monkeypatch.setattr(solver, "_damped_newton", recording)
    statuses = []
    for p in problems:
        try:
            statuses.append(solver.solve_dual(p).status)
        except (EmptyInterior, MaxIterations):
            statuses.append("raised")
    monkeypatch.undo()
    return points, statuses


def test_interior_converged_matches_the_eigh_definition(monkeypatch):
    rng = np.random.default_rng(3)
    problems = [_continuous_problem(rng, n) for n in (2, 3, 4, 6, 8, 8, 12, 16)]
    problems += [random_qip(rng, n).to_problem() for n in (4, 6, 8, 10, 12, 16)]
    problems += [random_qip(rng, n, f_style="zero").to_problem() for n in (3, 4, 6, 8)]
    problems += [double_well(0.0), double_well(0.5)]
    points, statuses = _newton_end_points(monkeypatch, problems)
    assert len(problems) == 20 and "boundary" in statuses and "interior" in statuses
    # G = diag(1e4 + 2, 1e-5) is above the margin, yet singular by
    # dual.boundary_tol; G = diag(1e4, 2) is regular, but sigma_1 = 5e-8 is
    # inside the margin
    stiff = QipInstance(Q=np.diag([1e4, 0.0]), f=np.zeros(2)).to_problem()
    points += [dual.factor_point(stiff, np.array(s)) for s in ([1.0, 0.5e-5], [5e-8, 1.0])]
    assert dual.assemble_G(stiff, points[-2].s).is_singular()

    seen = set()
    for point in points:
        p = point.p
        gm = solver._strictly_feasible(p, point.s, solver._FEAS_MARGIN * p.f_scale)
        # the solve's own tolerance, and an infinite one that tests the
        # region and singularity part alone
        for gtol in (SolverConfig().grad_tol * p.f_scale, math.inf):
            try:
                expected = gm is not None and np.linalg.norm(gm.grad) <= gtol
            except SingularG:
                expected = False
            assert solver._interior_converged(point, gtol) == expected
            seen.add(("outside" if gm is None else expected, gtol))
    # every outcome occurs: outside the margin, inside but not stationary, converged
    assert {outcome for outcome, _ in seen} == {"outside", False, True}


def test_interior_converged_makes_no_eigh_call(monkeypatch):
    from canondual import linalg

    calls = {"solve": 0, "converged": 0}
    inside = []
    eigh, converged = linalg.eigh, solver._interior_converged

    def counting_eigh(M):
        calls["converged" if inside else "solve"] += 1
        return eigh(M)

    def flagged(*args):
        inside.append(True)
        try:
            return converged(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "eigh", counting_eigh)
    monkeypatch.setattr(solver, "_interior_converged", flagged)
    counts = []
    for p in (random_qip(np.random.default_rng(2), 16).to_problem(),
              _continuous_problem(np.random.default_rng(5), 32)):
        calls["solve"] = 0
        rep = solver.solve_dual(p)
        assert rep.status == "interior"
        counts.append(calls["solve"])
    assert calls["converged"] == 0
    # phase one and the report, which classification shares; every Newton
    # loop and the convergence test factorize by Cholesky only
    assert counts == [3, 2]


def test_newton_loops_make_no_eigh_call(monkeypatch):
    from canondual import linalg

    calls = {"newton": 0, "outside": 0}
    inside = []
    eigh, newton = linalg.eigh, solver._damped_newton

    def counting_eigh(M):
        calls["newton" if inside else "outside"] += 1
        return eigh(M)

    def flagged(*args, **kwargs):
        inside.append(True)
        try:
            return newton(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "eigh", counting_eigh)
    monkeypatch.setattr(solver, "_damped_newton", flagged)
    # the barrier ascent and the polish of a solve, and the root search from
    # every start of a multistart
    assert solver.solve_dual(_continuous_problem(np.random.default_rng(5), 32)).status == "interior"
    assert len(solver.dual_critical_points(double_well(0.5), n_starts=10)) == 3
    assert calls["newton"] == 0 and calls["outside"] > 0


def test_polish_takes_no_step_onto_the_singular_boundary(monkeypatch):
    # at a boundary maximizer the barrier ends where G is singular by
    # dual.boundary_tol, outside the polish's domain, so the polish stops at
    # its start; a positive-definite test alone lets it take one more step
    polish_steps = []
    newton = solver._damped_newton

    def recording(*args, **kwargs):
        s, state, its = newton(*args, **kwargs)
        if kwargs.get("step_tol") is None:  # the barrier steps pass one
            polish_steps.append((state, its))
        return s, state, its

    monkeypatch.setattr(solver, "_damped_newton", recording)
    problems = [double_well(0.0)] + [random_qip(np.random.default_rng(seed), n, f_style="zero")
                                     .to_problem() for seed, n in ((0, 3), (1, 6), (2, 8))]
    for p in problems:
        assert solver.solve_dual(p).status == "boundary"
    assert polish_steps == [(None, 0)] * len(problems)


def test_centering_test_needs_a_nonnegative_decrement(monkeypatch):
    # on sign QPs scaled by 1e4, -H is not numerically definite near the
    # boundary and g'd can come out negative; read as "centred", it ends each
    # barrier run early, and these certify or end perturbation rounds
    # interior only with the sign guard
    rng = np.random.default_rng(0)
    instances = [random_qip(rng, int(rng.integers(3, 11))) for _ in range(20)]
    scaled = [QipInstance(Q=1e4 * inst.Q, f=1e4 * inst.f) for inst in instances]
    assert integer.qip_dual_solve(scaled[19]).certificate == "dual_certified"

    statuses = []
    solve = solver.solve_dual

    def recording(p, cfg=None):
        rep = solve(p, cfg)
        statuses.append(rep.status)
        return rep

    monkeypatch.setattr(solver, "solve_dual", recording)
    for inst in (scaled[9], scaled[10]):
        statuses.clear()
        rep = integer.qip_dual_solve(inst)
        assert rep.certificate == "perturbation_only"
        assert rep.objective == oracle.enumerate_signs(inst).best_value
        assert "interior" in statuses[1:]


# ------------------------------------------------------------- phase one


def _count_phase1_fallbacks(monkeypatch) -> dict:
    """Counts of phase one's feasibility tests (the base point and the
    doubling scan) and of its subgradient steps."""
    calls = {"scan": 0, "subgradient": 0}
    for name, key in (("_strictly_feasible", "scan"), ("_project_domain", "subgradient")):
        def counting(*args, _inner=getattr(solver, name), _key=key):
            calls[_key] += 1
            return _inner(*args)
        monkeypatch.setattr(solver, name, counting)
    return calls


def test_phase1_doubling_scan_returns_its_first_feasible_point(monkeypatch):
    # the base point is infeasible: the plain term -5 I outweighs the quartic
    # term's start, and the scan along the domain direction finds G = 4 I
    p = Problem(n=2, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.eye(2), -5.0),
                            CanonicalTerm(TermKind.QUARTIC, np.eye(2), 1.0, -2.0)],
                f=np.array([0.5, 0.0]))
    calls = _count_phase1_fallbacks(monkeypatch)
    _, gm = solver._phase1(p)
    assert calls == {"scan": 5, "subgradient": 0}
    assert gm.min_eig == pytest.approx(4.0)
    monkeypatch.undo()
    rep = solver.solve_dual(p)
    assert (rep.status, rep.triality_class) == ("interior", "global_min")


def test_phase1_subgradient_ascent_returns_a_feasible_point(monkeypatch):
    # G = -D'D + a u u' + b v v' with a < 0 < b: the base point and the
    # doubling scan both miss the region on many draws
    rng = np.random.default_rng(0)
    calls = _count_phase1_fallbacks(monkeypatch)
    returned = 0
    for _ in range(100):
        p = Problem(n=2, f=rng.standard_normal(2), terms=[
            CanonicalTerm(TermKind.PLAIN_QUADRATIC, rng.standard_normal((2, 2)), -1.0),
            CanonicalTerm(TermKind.QUARTIC, rng.standard_normal((1, 2)),
                          -rng.uniform(0.3, 2.0), rng.uniform(-2.0, 1.0)),
            CanonicalTerm(TermKind.QUARTIC, rng.standard_normal((1, 2)),
                          rng.uniform(0.3, 2.0), rng.uniform(-2.0, 1.0))])
        calls["subgradient"] = 0
        try:
            s, gm = solver._phase1(p)
        except EmptyInterior:
            continue
        if calls["subgradient"]:
            returned += 1
            margin = solver._FEAS_MARGIN * p.f_scale
            assert gm.min_eig > margin and (dual.domain_slacks(p, s) > 0.0).all()
    assert returned >= 10


# ---------------------------------------------------------- perturbation


def test_perturbed_solve_recovers_symmetric_minima():
    rep = solver.perturbed_solve(double_well(0.0), SolverConfig(seed=1))
    assert rep.status == "perturbation"
    assert abs(abs(rep.x_bar[0]) - 2.0) <= 1e-5
    assert rep.primal_value == pytest.approx(0.0, abs=1e-9)


def test_perturbed_solve_maxcut_pair():
    inst = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.zeros(2))
    rep = solver.perturbed_solve(inst.to_problem(), SolverConfig(seed=5))
    x = rep.x_bar
    assert set(np.abs(x)) == {1.0}
    assert x[0] * x[1] == -1.0
    assert rep.primal_value == pytest.approx(-1.0)


def test_perturbed_solve_strong_input_needs_zero_rounds():
    inst = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([3.0, 0.0]))
    p = inst.to_problem()
    direct = solver.solve_dual(p)
    rep = solver.perturbed_solve(p)
    assert rep.perturb_rounds == 0
    assert np.allclose(rep.x_bar, direct.x_bar)


def test_perturbed_solve_zero_delta_degenerates_to_plain_dual():
    rep = solver.perturbed_solve(double_well(0.0), SolverConfig(perturb_delta0=0.0))
    assert rep.status == "boundary"


# ------------------------------------------------------------- existence


def test_existence_qip_witness():
    inst = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([3.0, 0.0]))
    res = solver.existence_check(inst.to_problem())
    assert res.nonempty
    gm = dual.assemble_G(inst.to_problem(), res.witness)
    assert gm.min_eig > 0.0


def test_existence_check_reads_the_witness_phase_one_accepted(monkeypatch):
    from canondual import linalg

    calls = []
    eigh = linalg.eigh

    def counting(M):
        calls.append(M.shape)
        return eigh(M)

    monkeypatch.setattr(linalg, "eigh", counting)
    res = solver.existence_check(double_well(0.5))
    assert res.nonempty and res.min_eig > 0.0
    assert len(calls) == 1


def test_existence_trivial_positive_definite():
    inst = QipInstance(Q=np.eye(3), f=np.array([1.0, -2.0, 0.5]))
    res = solver.existence_check(inst.to_problem())
    assert res.nonempty and res.min_eig > 0.0


def test_existence_likely_empty_with_flipped_domain():
    # negative-weight quartic confines the dual coordinate to sigma <= -2,
    # forcing the scalar operator negative
    p = Problem(n=1, terms=[CanonicalTerm(TermKind.QUARTIC, np.array([[1.0]]), -1.0, 2.0)],
                f=np.array([0.0]))
    res = solver.existence_check(p)
    assert not res.nonempty


# ------------------------------------------------------- critical points


def test_critical_points_find_all_three_roots():
    points = solver.dual_critical_points(double_well(0.5), n_starts=10)
    found = sorted(float(s[0]) for s, _, _ in points)
    expected = sorted(solver.solve_cubic_dual(1.0, 2.0, 0.5))
    assert len(found) == 3
    assert np.allclose(found, expected, atol=1e-8)


def test_critical_points_symmetric_case_isolated_maximizer():
    points = solver.dual_critical_points(double_well(0.0), n_starts=8)
    assert len(points) == 1
    assert points[0][0][0] == pytest.approx(-2.0, abs=1e-9)


def test_root_search_refuses_an_overflowing_trial_without_a_warning(monkeypatch):
    # the 12th draw has xlogx, plain and exponential terms at n = 3; far out,
    # a trial's gradient norm overflows: its merit is inf, and it is refused
    rng = np.random.default_rng(11)
    p = [random_problem(rng, n_max=4, max_terms=3) for _ in range(12)][-1]
    assert p.n == 3
    merits = []
    norm = solver._gradient_norm

    def recording(point):
        merits.append(norm(point))
        return merits[-1]

    monkeypatch.setattr(solver, "_gradient_norm", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = solver.dual_critical_points(p)
    assert math.inf in merits
    assert [(s.tolist(), value, member) for s, value, member in points] == [
        ([-43147.91994804625, 1.0816526953247216], 1.0816828050283387, Membership.OUTSIDE),
        ([-0.8309117303996775, 1.3601177881311717], 0.44060549157086415, Membership.INTERIOR),
    ]


# ------------------------------------------------------------------ sweep


def test_fc_sweep_threshold_matches_discriminant_oracle():
    grid = [round(0.1 * k, 10) for k in range(1, 41)]
    res = solver.fc_sweep(double_well(0.0), [1.0], grid, SolverConfig(seed=2), n_starts=8)
    # independent oracle: smallest grid point where the cubic has one real root
    oracle_threshold = next(m for m in grid
                            if len(solver.solve_cubic_dual(1.0, 2.0, m)) == 1)
    assert res.threshold is not None
    assert abs(res.threshold - oracle_threshold) <= 0.1 + 1e-12
    assert abs(res.threshold - WELL_FC) <= 0.1 + 1e-12


def test_readme_well_sweep_rows_are_pinned_and_deep_trials_are_screened(monkeypatch):
    # the 12-magnitude sweep of the benchmark.  Factorizing every trial one at
    # a time makes 23,051 factor_point calls, 10,576 of them refused for
    # their domain slacks; the stacked screen leaves those of the first
    # _SINGLE_STEPS trials of each line search
    calls = {"all": 0, "slack_refused": 0}
    factor = dual.factor_point

    def counting(p, s, cholesky=True, slacks=None):
        calls["all"] += 1
        point = factor(p, s, cholesky, slacks)
        if point is None and dual.screen(p, s, cholesky)[0]:
            calls["slack_refused"] += 1
        return point

    monkeypatch.setattr(dual, "factor_point", counting)
    res = solver.fc_sweep(double_well(1.0), [1.0], np.linspace(0.25, 3.0, 12))
    assert calls == {"all": 14_977, "slack_refused": 2_502}
    assert res.threshold == 1.75
    rows = json.dumps([dataclasses.asdict(row) for row in res.rows])
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "757eafc1eecde4305e5fe676f3a384c7d1f36b04709d163cb511db1cc949b3b6")


def test_fc_sweep_all_unique_above_threshold():
    res = solver.fc_sweep(double_well(0.0), [1.0], [2.0, 3.0, 4.0], SolverConfig(), n_starts=6)
    assert all(r.unique for r in res.rows)
    assert res.threshold == 2.0


def test_fc_sweep_threads_keep_the_rows():
    args = (double_well(0.0), [1.0], [0.5, 2.0, 3.0], SolverConfig(), 6)
    assert solver.fc_sweep(*args, threads=2) == solver.fc_sweep(*args, threads=1)


def test_fc_sweep_zero_magnitude_flagged():
    res = solver.fc_sweep(double_well(0.0), [1.0], [0.0, 2.0], SolverConfig(), n_starts=6)
    assert res.rows[0].boundary and not res.rows[0].unique
    assert res.rows[0].outcome == "boundary"
    assert res.rows[1].unique and res.rows[1].outcome == "interior"


def test_solver_config_json_roundtrip(tmp_path):
    cfg = SolverConfig(grad_tol=1e-8, seed=4, perturb_delta0=0.2)
    text = json.dumps(dataclasses.asdict(cfg))
    again = SolverConfig.from_json(text)
    assert again == cfg
    with pytest.raises(ValueError):
        SolverConfig.from_json('{"grad_tol": 1e-8, "mystery": 1}')
    with pytest.raises(ValueError):
        SolverConfig(barrier_shrink=1.5)
