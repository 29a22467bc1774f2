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
from canondual.errors import DimensionMismatch, EmptyInterior, MaxIterations, SingularG
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
    points = solver.dual_critical_points(double_well(-2.0))
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
        [(s, _, _)] = solver._damped_newton([s], *solver._barrier(p, mu), tol=1e-14,
                                            max_iter=1, step_tol=cfg.step_tol)
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
    [(s, _, _)] = solver._damped_newton([solver._phase1(p)[0]], *solver._barrier(p, 1.0),
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
    # the rows a line search hands its trial, the first ones one at a time
    # and the rest as one stack, are those of halving t one step at a time,
    # bit for bit, the points outside the domain among them.  The trial's
    # own screen (the barrier's Cholesky trial, the root search's stacked LU
    # trial) refuses those, every row's merit is that of its point made
    # alone, and a point it makes holds its own row's slacks
    p = _barrier_problem(name)
    s, _ = solver._phase1(p)
    trial, merit = (solver._barrier(p, 1.0) if cholesky else solver._roots(p, [p]))[:2]
    refused_any, edge_steps = False, set()
    # t = 2^-k along -2^k s puts each sign multiplier and exponential
    # coordinate exactly on its edge, slack 0: at t = 1/2 among the single
    # trials, at t = 2^-_SINGLE_STEPS in the stack
    edges = [-2.0 * s, -math.ldexp(1.0, solver._SINGLE_STEPS) * s]
    for d in edges + [scale * (1.0 + np.abs(s)) * rng.standard_normal(p.dual_dim)
                      for scale in (10.0, 10.0, 1e3, 1e3, 1e3)]:
        handed = []

        def refusing(Z, owners, bounds):
            # within a bound of inf the first row inside is accepted; within
            # -inf none is, so every row is made and the line search runs
            # through all its steps
            for a, state in trial(Z, owners, [math.inf] * len(Z))[0].items():
                assert state.slacks.tobytes() == dual.domain_slacks(p, Z[a]).tobytes()
            states, merits = trial(Z, owners, [-math.inf] * len(Z))
            assert states == {}
            handed.extend(zip(Z, merits))
            return states, merits

        # g = d with H = -I makes d the Newton direction
        solver._damped_newton([s], refusing, lambda state: 0.0, lambda g, d, m: 1.0,
                              lambda states: (d[None], -np.eye(p.dual_dim)[None]), tol=0.0,
                              max_iter=1, states=["start"])
        assert len(handed) == solver._HALVINGS
        for k, (z, m) in enumerate(handed):
            t = math.ldexp(1.0, -k)
            assert z.tobytes() == (s + t * d).tobytes()
            if (dual.domain_slacks(p, z) == 0.0).any():
                edge_steps.add(t)
            alone = dual.factor_point(p, z, cholesky)
            refused_any |= alone is None
            assert m == (math.inf if alone is None else merit(alone))
    assert refused_any
    assert {0.5, math.ldexp(1.0, -solver._SINGLE_STEPS)} <= edge_steps


@pytest.mark.parametrize("search", ["root", "barrier"])
def test_refused_trials_build_only_what_the_merit_reads(search, monkeypatch):
    # a trial the line search refuses carries its merit's inputs only: the
    # barrier's value, with no L^-1, no Hessian and no gradient; the root
    # search's stacked trials build no point at all for a refused row
    if search == "root":
        p = double_well(1.75)  # one real root: most root searches never converge
        starts = solver._ladder_starts(p)
        callbacks = solver._roots(p, [p] * len(starts))
    else:
        p = _barrier_problem("continuous")
        callbacks, starts = solver._barrier(p, 0.01), [solver._phase1(p)[0]]
    trial, merit, slope, derivatives = callbacks
    built, derived, tried = [], [], []
    init = dual.DualPoint.__init__

    def recording_init(point, *args, **kwargs):
        init(point, *args, **kwargs)
        built.append(point)

    def recording_trial(Z, *args):
        tried.extend(Z)
        return trial(Z, *args)

    def recording_derivatives(points):
        derived.extend(points)
        return derivatives(points)

    monkeypatch.setattr(dual.DualPoint, "__init__", recording_init)
    ends = solver._damped_newton(starts, recording_trial, merit, slope,
                                 recording_derivatives, tol=1e-12, max_iter=60)
    kept = {id(point) for point in derived + [state for _, state, _ in ends]}
    refused = [point for point in built if id(point) not in kept]
    if search == "root":
        # the Hessians of the accepted points are formed as one stack
        # (dual.bare_hessians), not cached on each point
        assert refused == [] and len(built) < len(tried)
        assert all("bare_grad" in vars(point) for point in built)
        return
    assert all("bare_hess" in vars(point) for point in derived)
    assert refused
    for point in refused:
        assert not {"Linv", "bare_hess", "logdet_derivs", "bare_grad"} & set(vars(point))
        assert "bare_value" in vars(point)


@pytest.mark.parametrize("alpha", [0.8, -1.2])
def test_lu_points_refuse_an_exponential_coordinate_on_its_edge(alpha):
    # the LU domain is closed, except where a conjugate is undefined: an
    # exponential coordinate needs a positive slack, while a quartic
    # coordinate and a sign multiplier may sit on their edges
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an exponential term with alpha < 0 warns
        terms = [CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.sqrt(3.0) * np.eye(2), 1.0),
                 CanonicalTerm(TermKind.EXPONENTIAL, np.array([[1.0, 0.5]]), alpha),
                 CanonicalTerm(TermKind.QUARTIC, np.array([[0.5, 1.0]]), 2.0, -0.5)]
    p = Problem(n=2, terms=terms, f=np.array([0.3, -0.2]), variables=Variables.SIGN_INTEGER)
    on_edges = np.array([0.0, -1.0, 0.0, 0.0])
    exponential_inside = on_edges + [math.copysign(0.5, alpha), 0.0, 0.0, 0.0]
    for s, refused in ((on_edges, True), (exponential_inside, False)):
        outside, slacks = dual.screen(p, s, cholesky=False)
        assert slacks.tolist().count(0.0) == (4 if refused else 3)
        assert outside == refused
        assert dual.screen(p, s)[0]  # a Cholesky point needs every slack positive
        assert (dual.factor_point(p, s, cholesky=False) is None) == refused
    stack = dual.factor_stack(p, [on_edges, exponential_inside], [p.f] * 2, [p] * 2)
    assert len(stack.Z) == 2 and stack.kept.tolist() == [1] and stack[0] is None
    alone = dual.factor_point(p, exponential_inside, cholesky=False)
    assert stack[1].x.tobytes() == alone.x.tobytes()


def _root_search_problems() -> list:
    """The README well at the 12 magnitudes of the benchmark's sweep, random
    continuous problems with every term kind at n = 1 .. 6, and sign
    problems with and without a linear term."""
    well = double_well(1.0)
    problems = [Problem(n=1, terms=well.terms, f=np.array([m]))
                for m in np.linspace(0.25, 3.0, 12)]
    rng = np.random.default_rng(1)
    problems += [random_problem(rng, n_max=6, max_terms=4) for _ in range(10)]
    problems += [random_qip(np.random.default_rng(seed), n, f_style=style).to_problem()
                 for seed, n in ((0, 2), (1, 3), (2, 5)) for style in ("uniform", "zero")]
    return problems


def _two_variable_well(magnitude: float) -> Problem:
    """The two-variable well of the CI's numpy-floor sweep, with input
    magnitude * (1, 0): a 2x2 G."""
    terms = (CanonicalTerm(TermKind.QUARTIC, np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, -2.0),
             CanonicalTerm(TermKind.QUARTIC, np.array([[0.0, 1.0]]), 0.5, -1.0))
    return Problem(n=2, terms=terms, f=np.array([magnitude, 0.0]))


def _same_terms_families() -> list:
    """Lists of problems that share their terms and differ in f: the README
    well at the 12 magnitudes of the benchmark's sweep, the two-variable
    well at four, and each ``_root_search_problems`` draw at two magnitudes
    of its own input's direction (all ones where that input is zero)."""
    draws = _root_search_problems()
    families = [draws[:12], [_two_variable_well(m) for m in (0.0, 0.5, 2.0, 3.0)]]
    for p in draws[12:]:
        direction = p.f if np.any(p.f) else np.ones(p.n)
        direction = direction / np.linalg.norm(direction)
        families.append([Problem(n=p.n, terms=p.terms, f=m * direction, variables=p.variables)
                         for m in (0.5, 2.0)])
    return families


def test_lockstep_root_search_ends_every_start_where_it_ends_alone():
    # every start of a multistart, run in one lockstep stack with stacked LU
    # trials, ends at the same s, with the same None-ness and the same step
    # count, as the start run alone on its problem with its trials
    # factorized one at a time.  One stack holds the starts of one
    # _root_search_problems draw (12 random starts each), or of a family of
    # problems on the same terms (6 each), each row with its own f,
    # tolerance and problem
    problems = _root_search_problems()
    kinds = {t.kind for p in problems for t in p.terms}
    assert kinds == set(TermKind) and {p.n for p in problems} >= set(range(1, 7))
    outcomes = set()
    for family, n_random in ([([p], 12) for p in problems]
                             + [(family, 6) for family in _same_terms_families()]):
        starts, owners, tols = [], [], []
        for q in family:
            rng = np.random.default_rng(0)
            drawn = (solver._ladder_starts(q)
                     + [solver._random_dual_start(q, rng) for _ in range(n_random)])
            starts += drawn
            owners += [q] * len(drawn)
            tols += [1e-11 * q.f_scale] * len(drawn)
        together = solver._damped_newton(
            starts, *solver._roots(family[0], owners), tol=tols,
            max_iter=60)
        for start, q, tol, (s, state, steps) in zip(starts, owners, tols, together):
            alone = ((solver._one_at_a_time(partial(dual.factor_point, q, cholesky=False),
                                            solver._gradient_norm),)
                     + solver._roots(q, [q])[1:])
            [(s_alone, state_alone, steps_alone)] = solver._damped_newton(
                [start], *alone, tol=tol, max_iter=60)
            assert s.tobytes() == s_alone.tobytes()
            assert (state is None, steps) == (state_alone is None, steps_alone)
            if state is not None:
                assert state.p is q
                assert state.x.tobytes() == state_alone.x.tobytes()
                assert state.bare_grad.tobytes() == state_alone.bare_grad.tobytes()
            outcomes.add("none" if state is None else "60" if steps == 60 else
                         "root" if solver._gradient_norm(state) <= tol else "stopped")
    assert outcomes == {"none", "60", "root", "stopped"}


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
    # f = 0: the plain solve ends on the boundary, and the rounds run
    drawn = _continuous_problem(np.random.default_rng(2), 8)
    symmetric = Problem(n=8, terms=drawn.terms, f=np.zeros(8))
    reports = {
        "continuous n=16": solver.solve_dual(cont16),
        "continuous n=32": solver.solve_dual(cont32),
        "certified qip n=16": solver.solve_dual(certified),
        "continuous n=8, f=0": solver.perturbed_solve(symmetric),
    }
    assert reports["continuous n=8, f=0"].perturb_rounds == 8
    # the outcome fields, which the arithmetic must not move
    interior = ("interior", "global_min", False)
    assert {name: (rep.status, rep.triality_class, rep.boundary_flag,
                   "".join("+" if v > 0 else "-" for v in rep.x_bar))
            for name, rep in reports.items()} == {
        "continuous n=16": interior + ("+---+--++++---+-",),
        "continuous n=32": interior + ("-+-+--+--+-+---++---+++++-++----",),
        "certified qip n=16": interior + ("+" * 16,),
        "continuous n=8, f=0": ("perturbation", "global_min", True, "----++-+"),
    }
    assert {name: _report_sha(rep) for name, rep in reports.items()} == {
        "continuous n=16": "a65056f0b02084df14ab497a1b7daa2f755bebeac74897d6c655875838452fbf",
        "continuous n=32": "02f93fcf04fca48ef53b2c8e4bb54dd12b3fd69697d0fc736e8d19938b3f9c20",
        "certified qip n=16": "6b1fd9ef617678bc954190386cdbd31e02c131c4ebb3607c74ee05880d3123a6",
        "continuous n=8, f=0": "94ab444a55820b800f9bd0d1fbcf7ea6c70a77206d66bc0be26b572cc67ecaf6",
    }


def _counting_newton(monkeypatch) -> list:
    """A list that records, for each ``_damped_newton`` call from here on,
    whether it is a barrier step (``centred`` set) or not (a polish)."""
    calls = []
    newton = solver._damped_newton

    def counting(*args, **kwargs):
        calls.append(kwargs.get("centred") is not None)
        return newton(*args, **kwargs)

    monkeypatch.setattr(solver, "_damped_newton", counting)
    return calls


def test_a_refused_handover_leaves_the_path_to_the_floor(monkeypatch):
    # the barrier hands over to the polish once the bare Newton step lies
    # inside the barrier's Dikin ellipsoid: 2 outer steps on this certified
    # solve, then one polish.  With every handover refused, mu walks to the
    # floor in 18 steps and the one polish follows, with the bits of a solve
    # that never hands over
    certified = random_qip(np.random.default_rng(2), 16).to_problem()
    calls = _counting_newton(monkeypatch)
    handed = solver.solve_dual(certified)
    assert (calls.count(True), calls.count(False), calls[-1]) == (2, 1, False)
    calls.clear()
    monkeypatch.setattr(solver, "_interior_converged", lambda point, gtol: False)
    refused = solver.solve_dual(certified)
    assert calls.count(True) == 18 and calls[-1] is False
    assert handed.status == refused.status == "interior"
    assert np.allclose(handed.x_bar, refused.x_bar, rtol=0.0, atol=1e-9)
    assert _report_sha(refused) == (
        "5922fcf96cfa9b05f257c4c7819fdc363745d57e76b3995f363ca2edbf3ae23f")


def test_a_solve_that_never_hands_over_keeps_its_bits(monkeypatch):
    # f = 0: each sign's bare gradient x_i^2 - 1 is -1, so the gradient norm
    # stays sqrt(n), no handover is tried, and the barrier runs to the floor,
    # where G is singular by dual.boundary_tol: no polish starts there
    p = random_qip(np.random.default_rng(2), 8, f_style="zero").to_problem()
    calls = _counting_newton(monkeypatch)
    rep = solver.solve_dual(p)
    assert calls == [True] * 18
    assert (rep.status, rep.iterations) == ("boundary", 37)
    assert _report_sha(rep) == (
        "4d8583a592c1409061556c64271e474b20425489fa516321981a18463c57c544")


def _scaled(p: Problem, c: float) -> Problem:
    """p with every term's alpha and f multiplied by c: the objective times
    c, whose dual points are c times those of p."""
    return Problem(n=p.n, terms=[dataclasses.replace(t, alpha=c * t.alpha) for t in p.terms],
                   f=c * p.f, variables=p.variables)


def test_newton_radius_is_scale_free():
    # at a centred barrier point of a certified sign QP (Q and f times c),
    # and of a continuous problem with an xlogx and a quartic term, the bare
    # Newton step's radius is that of the problem scaled by c at c times
    # the point
    certified = random_qip(np.random.default_rng(2), 16).to_problem()
    cont = _continuous_problem(np.random.default_rng(2), 32)
    assert [t.kind for t in cont.terms[1:]] == [TermKind.XLOGX, TermKind.QUARTIC]
    for p in (certified, cont):
        s, _ = solver._phase1(p)
        [(s, point, _)] = solver._damped_newton([s], *solver._barrier(p, 1.0), tol=0.0,
                                                max_iter=60, centred=solver._CENTERING)
        r = point.newton_radius()
        assert 0.0 < r < math.inf
        for c in (1e-4, 1e4):
            assert dual.factor_point(_scaled(p, c), c * s).newton_radius() == pytest.approx(
                r, rel=1e-9, abs=0.0)


def test_boundary_problems_start_no_polish(rng, monkeypatch):
    # f = 0 continuous problems, most with a boundary maximizer: the barrier
    # hands a point over only where the polish finishes, so no polished
    # point is refused.  The last problem, G = 5 + s with the xlogx conjugate
    # e^(s - 1), has its maximizer on the boundary, and the bare Newton step
    # is d = -1 everywhere: short in the barrier's norm far from the
    # boundary, but it changes the conjugate's curvature by e each step
    problems = [random_problem(rng, f_scale=0.0) for _ in range(20)]
    problems.append(Problem(n=1, f=np.zeros(1), terms=[
        CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.eye(1), 5.0),
        CanonicalTerm(TermKind.XLOGX, np.eye(1), 1.0)]))
    verdicts = []
    converged = solver._interior_converged

    def recording(point, gtol):
        verdicts.append(converged(point, gtol))
        return verdicts[-1]

    monkeypatch.setattr(solver, "_interior_converged", recording)
    statuses = [solver.solve_dual(p).status for p in problems]
    assert (statuses.count("interior"), statuses.count("boundary")) == (4, 17)
    assert verdicts == [True] * 4


def test_a_refused_point_is_not_polished_again(monkeypatch):
    # n = 6 with one xlogx term, whose maximizer sits near s = 20, where the
    # conjugate is about e^10: the polish stalls above gtol, and most barrier
    # runs after the first take no Newton step.  The barrier's unchanged
    # point is not polished again: a polish for each new point and one at
    # the floor, not one per outer step (18), and the solve still raises
    rng = np.random.default_rng(212)
    p = [random_problem(rng, f_scale=3.0) for _ in range(12)][-1]
    assert p.n == 6 and [t.kind for t in p.terms].count(TermKind.XLOGX) == 1
    calls = _counting_newton(monkeypatch)
    with pytest.raises(MaxIterations):
        solver.solve_dual(p)
    assert calls.count(True) == 18 and calls.count(False) <= 4


def _newton_end_points(monkeypatch, problems) -> list:
    """Every point a Newton run of solving each problem ends at: each outer
    barrier step and the polish."""
    points = []
    newton = solver._damped_newton

    def recording(*args, **kwargs):
        ends = newton(*args, **kwargs)
        points.extend(state for _, state, _ in ends if isinstance(state, dual.DualPoint))
        return ends

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
        margin = solver._FEAS_MARGIN * p.f_scale
        gm = dual.assemble_G(p, point.s)
        inside = gm.min_eig > margin and bool((dual.domain_slacks(p, point.s) > margin).all())
        # the solve's own tolerance, and an infinite one that tests the
        # region and singularity part alone
        for gtol in (SolverConfig().grad_tol * p.f_scale, math.inf):
            try:
                expected = inside and np.linalg.norm(gm.grad) <= gtol
            except SingularG:
                expected = False
            assert solver._interior_converged(point, gtol) == expected
            seen.add((expected if inside else "outside", gtol))
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
    # the report, which classification shares, and for the sign problem the
    # start of phase one's multipliers; phase one's feasibility test, every
    # Newton loop and the convergence test factorize by Cholesky only
    assert counts == [2, 1]


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
    assert len(solver.dual_critical_points(double_well(0.5))) == 3
    assert calls["newton"] == 0 and calls["outside"] > 0


def test_polish_takes_no_step_onto_the_singular_boundary(monkeypatch):
    # at a boundary maximizer the barrier ends where G is singular by
    # dual.boundary_tol, outside the polish's domain, so no polish starts
    # from its last point; a positive-definite test alone lets the polish
    # take one more step
    polish_steps, last_points = [], []
    newton = solver._damped_newton

    def recording(*args, **kwargs):
        ends = newton(*args, **kwargs)
        if kwargs.get("step_tol") is None:  # the barrier steps pass one
            polish_steps.extend((state, its) for _, state, its in ends)
        else:
            last_points[:] = [state for _, state, _ in ends]
        return ends

    monkeypatch.setattr(solver, "_damped_newton", recording)
    problems = [double_well(0.0)] + [random_qip(np.random.default_rng(seed), n, f_style="zero")
                                     .to_problem() for seed, n in ((0, 3), (1, 6), (2, 8))]
    for p in problems:
        assert solver.solve_dual(p).status == "boundary"
        [point] = last_points
        # positive definite, with its Cholesky factor, yet singular
        assert point.L is not None and not point.clears(0.0)
    assert polish_steps == []


def test_centering_test_needs_a_nonnegative_decrement():
    # on sign QPs scaled by 1e4, -H is not numerically definite near the
    # boundary and g'd can come out negative; read as "centred", it ends each
    # barrier run early, and instance 19 certifies only with the sign guard
    rng = np.random.default_rng(0)
    instances = [random_qip(rng, int(rng.integers(3, 11))) for _ in range(20)]
    scaled = [QipInstance(Q=1e4 * inst.Q, f=1e4 * inst.f) for inst in instances]
    assert integer.qip_dual_solve(scaled[19]).certificate == "dual_certified"
    for inst in (scaled[9], scaled[10]):
        rep = integer.qip_dual_solve(inst)
        assert rep.certificate == "perturbation_only"
        assert rep.objective == oracle.enumerate_signs(inst).best_value


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


def test_perturbed_solve_refuses_a_sign_problem():
    # the sign pipeline rounds its one dual point, and the rounds serve
    # continuous problems only, as the sign pipeline serves sign ones only
    inst = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.zeros(2))
    with pytest.raises(DimensionMismatch, match="continuous"):
        solver.perturbed_solve(inst.to_problem(), SolverConfig(seed=5))
    with pytest.raises(DimensionMismatch, match="sign_integer"):
        integer.sign_problem_solve(double_well(0.0))


def test_perturbed_solve_strong_input_needs_zero_rounds():
    # the terms of the pinned f = 0 instance with their drawn input certify
    p = _continuous_problem(np.random.default_rng(2), 8)
    direct = solver.solve_dual(p)
    rep = solver.perturbed_solve(p)
    assert direct.status == "interior" and rep.perturb_rounds == 0
    assert _report_sha(rep) == _report_sha(direct)


def test_perturbed_solve_zero_delta_degenerates_to_plain_dual():
    rep = solver.perturbed_solve(double_well(0.0), SolverConfig(perturb_delta0=0.0))
    assert rep.status == "boundary"


def test_perturbed_solve_zero_rounds_returns_the_plain_report():
    # no round runs, so the plain solve's boundary report is the answer
    p, cfg = double_well(0.0), SolverConfig(max_perturb_rounds=0)
    rep = solver.perturbed_solve(p, cfg)
    assert rep.status == "boundary" and rep.perturb_rounds == 0
    assert _report_sha(rep) == _report_sha(solver.solve_dual(p, cfg))


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


def test_phase_one_without_a_dual_coordinate_tests_the_plain_block_once(monkeypatch):
    # -|x|^2 / 2 - f'x has plain terms only, so no dual coordinate, and
    # G = -I.  With no coordinate to move, phase one stops after the base
    # test: no doubling scan and no ascent, and the plain block's smallest
    # eigenvalue is the best one found
    p = Problem(n=2, terms=[CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.eye(2), -1.0)],
                f=np.array([0.5, 0.1]))
    assert p.dual_dim == 0
    assembled = []
    assemble = dual.assemble_G

    def counting(p, s):
        assembled.append(s)
        return assemble(p, s)

    monkeypatch.setattr(dual, "assemble_G", counting)
    with pytest.raises(EmptyInterior) as raised:
        solver.solve_dual(p)
    assert raised.value.best_min_eig == -1.0 and len(assembled) <= 2
    res = solver.existence_check(p)
    assert res.status == "likely_empty" and res.witness is None and res.min_eig == -1.0


# ------------------------------------------------------- critical points


def test_critical_points_find_all_three_roots():
    points = solver.dual_critical_points(double_well(0.5))
    found = sorted(float(s[0]) for s, _, _ in points)
    expected = sorted(solver.solve_cubic_dual(1.0, 2.0, 0.5))
    assert len(found) == 3
    assert np.allclose(found, expected, atol=1e-8)


def test_critical_points_symmetric_case_isolated_maximizer():
    points = solver.dual_critical_points(double_well(0.0))
    assert len(points) == 1
    assert points[0][0][0] == pytest.approx(-2.0, abs=1e-9)


def test_root_search_refuses_an_overflowing_trial_without_a_warning(monkeypatch):
    # the 12th draw has xlogx, plain and exponential terms at n = 3; far out,
    # a trial's gradient norm overflows: its stacked merit is inf, and the
    # trial is refused
    rng = np.random.default_rng(11)
    p = [random_problem(rng, n_max=4, max_terms=3) for _ in range(12)][-1]
    assert p.n == 3
    merits = []
    norms = solver._gradient_norms

    def recording(grads):
        merits.extend(norms(grads).tolist())
        return norms(grads)

    monkeypatch.setattr(solver, "_gradient_norms", recording)
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
    res = solver.fc_sweep(double_well(0.0), [1.0], grid, SolverConfig(seed=2))
    # independent oracle: smallest grid point where the cubic has one real root
    oracle_threshold = next(m for m in grid
                            if len(solver.solve_cubic_dual(1.0, 2.0, m)) == 1)
    assert res.threshold is not None
    assert abs(res.threshold - oracle_threshold) <= 0.1 + 1e-12
    assert abs(res.threshold - WELL_FC) <= 0.1 + 1e-12


def test_readme_well_sweep_rows_are_pinned_and_deep_trials_are_screened(monkeypatch):
    # the 12-magnitude sweep of the benchmark.  Factorizing every trial one at
    # a time makes 23,051 factor_point calls, 10,576 of them refused for
    # their domain slacks.  The solves' barrier and polish make 89 trials one
    # at a time.  The root searches, the 216 starts of all 12 magnitudes in
    # one lockstep stack, make one stack of the start points, then at most
    # five an iteration: the four single steps, and every deeper step of
    # every start still searching in one (a 1x1 G fits a whole deep round in
    # one pass of _lu_trials).  So they hand factor_stack 39,584 trials, the
    # deep steps past each start's accepted one among them, in 126 stacks,
    # and its own screen refuses the same 10,576 for their slacks.  Each of
    # their 25 iterations forms the Hessians of its running starts as one
    # stack (1,865 in all), and the Newton directions too: no start is
    # solved alone
    calls = {"points": 0, "stacks": 0, "rows": 0, "slack_refused": 0,
             "hessian_stacks": 0, "hessians": 0, "alone_directions": 0}
    factor, stack = dual.factor_point, dual.factor_stack
    hessians, alone_direction = dual.bare_hessians, solver._solve_newton

    def counting_hessians(p, s, G, images):
        calls["hessian_stacks"] += 1
        calls["hessians"] += len(s)
        return hessians(p, s, G, images)

    def counting_alone(H, g):
        calls["alone_directions"] += 1
        return alone_direction(H, g)

    def counting(p, s, cholesky=True):
        calls["points"] += 1
        return factor(p, s, cholesky)

    def counting_stack(p, Z, f, problems):
        calls["stacks"] += 1
        calls["rows"] += len(Z)
        calls["slack_refused"] += int(dual.screen(p, np.array(Z), False)[0].sum())
        return stack(p, Z, f, problems)

    monkeypatch.setattr(dual, "factor_point", counting)
    monkeypatch.setattr(dual, "factor_stack", counting_stack)
    monkeypatch.setattr(dual, "bare_hessians", counting_hessians)
    monkeypatch.setattr(solver, "_solve_newton", counting_alone)
    res = solver.fc_sweep(double_well(1.0), [1.0], np.linspace(0.25, 3.0, 12))
    assert calls == {"points": 89, "stacks": 126, "rows": 39_584, "slack_refused": 10_576,
                     "hessian_stacks": 25, "hessians": 1_865, "alone_directions": 0}
    assert res.threshold == 1.75
    rows = json.dumps([dataclasses.asdict(row) for row in res.rows])
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "43f64423f2a43139d62a9ff18deeee8fc15cb444d5b5e31c2017a3fb1e4c6e2e")


def _sweep_row_alone(m: float, pm: Problem, cfg: SolverConfig) -> solver.FcRow:
    """The sweep row of magnitude m, with input pm, built from the certified
    solve and ``dual_critical_points`` of that magnitude alone."""
    try:
        outcome = solver.solve_dual(pm, cfg).status
    except EmptyInterior:
        outcome = "empty_interior"
    except MaxIterations:
        outcome = "stalled"
    points = solver.dual_critical_points(pm, cfg)
    boundary = outcome != "interior"
    clusters = []
    for s, _, _ in points:
        if all(np.linalg.norm(s - c) > solver.CLUSTER_RADIUS for c in clusters):
            clusters.append(s)
    return solver.FcRow(magnitude=m, clusters=[list(map(float, c)) for c in clusters],
                        n_clusters=len(clusters), boundary=boundary,
                        unique=len(clusters) == 1 and not boundary, outcome=outcome)


@pytest.mark.parametrize("case", ["well", "two_variable", "empty_interior", "random"])
def test_fc_sweep_rows_equal_the_search_of_each_magnitude_alone(case):
    # the sweep runs the root searches of all its magnitudes as one stack;
    # every row equals, byte for byte, the row of its magnitude searched
    # alone.  The grids hold magnitude 0, a boundary outcome, and magnitudes
    # whose certified solve raises (phase one finds no interior), whose rows
    # join the stack without a certified point
    cfg = SolverConfig(seed=3)
    if case == "well":
        template, direction = double_well(1.0), [1.0]
    elif case == "two_variable":
        template, direction = _two_variable_well(1.0), [1.0, 0.0]
    elif case == "empty_interior":
        template = Problem(n=1, terms=[CanonicalTerm(TermKind.QUARTIC, np.array([[1.0]]),
                                                     -1.0, 2.0)], f=np.array([0.0]))
        direction = [1.0]
    else:
        template = random_problem(np.random.default_rng(4), n_max=4, max_terms=3)
        direction = np.ones(template.n)
    grid = [0.0, 0.5, 1.5, 2.0, 3.0]
    res = solver.fc_sweep(template, direction, grid, cfg)
    unit = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    alone = [_sweep_row_alone(m, Problem(n=template.n, terms=template.terms, f=m * unit,
                                        variables=template.variables), cfg)
             for m in grid]
    outcomes = {row.outcome for row in alone}
    if case == "empty_interior":
        assert outcomes == {"empty_interior"}
    else:
        assert "boundary" in outcomes
    assert json.dumps([dataclasses.asdict(row) for row in res.rows]) == json.dumps(
        [dataclasses.asdict(row) for row in alone])


def _continuous_template(n: int) -> Problem:
    """A plain, a quartic and an exponential term with square random
    factors, on n variables: an n x n G with R = 2n rows of B'."""
    rng = np.random.default_rng(5)
    terms = [CanonicalTerm(kind, rng.standard_normal((n, n)) / math.sqrt(n),
                           float(rng.uniform(0.3, 2.0)), beta)
             for kind, beta in ((TermKind.PLAIN_QUADRATIC, 0.0), (TermKind.QUARTIC, -1.0),
                                (TermKind.EXPONENTIAL, 0.0))]
    return Problem(n=n, terms=terms, f=rng.standard_normal(n))


def test_root_search_stacks_stay_within_their_bound(monkeypatch):
    # a sweep of a 16-variable template: every stacked call of its root
    # search (a trial's factor_stack, the Hessians' bare_hessians) holds at
    # most _STACK_ELEMENTS numbers in each stacked array, and the deep rounds
    # made in passes make fewer rows than one call for all of them would.
    # The rows are the same, byte for byte, whatever the bounds: with one
    # call a round, with three rows a call and one magnitude a stack, and
    # with each magnitude searched alone
    template = _continuous_template(16)
    grid, cfg = [0.5, 1.5, 3.0], SolverConfig()
    size = solver._row_size(template)
    assert size == 16 * 32 and solver._stack_rows(template) == 128
    factor, hessians = dual.factor_stack, dual.bare_hessians

    def sweep(stack_elements, search_elements):
        calls = []

        def counting_stack(p, Z, f, problems):
            calls.append(("trial", len(Z)))
            return factor(p, Z, f, problems)

        def counting_hessians(p, s, G, images):
            calls.append(("hessians", len(s)))
            return hessians(p, s, G, images)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_STACK_ELEMENTS", stack_elements)
            patch.setattr(solver, "_SEARCH_ELEMENTS", search_elements)
            patch.setattr(dual, "factor_stack", counting_stack)
            patch.setattr(dual, "bare_hessians", counting_hessians)
            res = solver.fc_sweep(template, template.f, grid, cfg)
        return json.dumps([dataclasses.asdict(row) for row in res.rows]), calls

    rows, calls = sweep(solver._STACK_ELEMENTS, solver._SEARCH_ELEMENTS)
    assert max(k for _, k in calls) * size <= solver._STACK_ELEMENTS
    one_call_rows, one_call = sweep(2**40, solver._SEARCH_ELEMENTS)
    made = sum(k for kind, k in calls if kind == "trial")
    assert made < sum(k for kind, k in one_call if kind == "trial")
    assert one_call_rows == rows
    small_rows, small = sweep(3 * size, size * (6 + solver.RANDOM_STARTS))
    assert max(k for _, k in small) == 3 and small_rows == rows
    unit = template.f / np.linalg.norm(template.f)
    alone = [_sweep_row_alone(m, Problem(n=16, terms=template.terms, f=m * unit), cfg)
             for m in grid]
    assert json.dumps([dataclasses.asdict(row) for row in alone]) == rows


@pytest.mark.parametrize("trial", ["one_at_a_time", "lu_3_a_call", "lu_one_call"])
def test_lu_trial_builds_only_each_starts_first_accepted_point(trial, monkeypatch):
    # the trial contract: a trial returns the state of each start's first row
    # within its bound, and of no other row, and the merit of every row it
    # makes.  The rows come as a deep round hands them over, longest step
    # first across the starts; a start's rows past its accepted one may go
    # unmade (merit inf).  A stacked LU trial builds no other point
    p = double_well(1.75)
    rng = np.random.default_rng(2)
    owners = np.array([0, 1, 2, 0, 2, 0, 2, 0, 2, 0])
    Z = np.abs(rng.standard_normal((10, 1))) + 0.5
    alone = [dual.factor_point(p, z, cholesky=False) for z in Z]
    every = np.array([solver._gradient_norm(point) for point in alone])
    # start 0 accepts its fourth row (row 7), start 1 none, start 2 its first
    # (row 2): a row passes from the accepted one on
    bounds = every - 1.0
    bounds[[7, 9, 2, 4, 6, 8]] = every[[7, 9, 2, 4, 6, 8]]
    sizes, built = [], []
    factor, init = dual.factor_stack, dual.DualPoint.__init__

    def counting_stack(p, Z, f, problems):
        sizes.append(len(Z))
        return factor(p, Z, f, problems)

    def recording_init(point, *args, **kwargs):
        init(point, *args, **kwargs)
        built.append(point)

    monkeypatch.setattr(dual, "factor_stack", counting_stack)
    monkeypatch.setattr(dual.DualPoint, "__init__", recording_init)
    if trial == "one_at_a_time":
        run = solver._one_at_a_time(partial(dual.factor_point, p, cholesky=False),
                                    solver._gradient_norm)
    else:
        run = partial(solver._lu_trials, p, np.array([p.f] * 3),
                      np.array([p] * 3, dtype=object), 3 if trial == "lu_3_a_call" else 10)
    states, merits = run(Z, owners, bounds)
    merits = np.asarray(merits)
    assert sorted(states) == [2, 7]
    for a, state in states.items():
        assert state.p is p and state.x.tobytes() == alone[a].x.tobytes()
        assert state.bare_grad.tobytes() == alone[a].bare_grad.tobytes()
    made = np.flatnonzero(np.isfinite(merits))
    assert (merits[made] == every[made]).all()
    # every row up to each start's accepted one is made; one call makes all
    assert made.tolist() == ([0, 1, 2, 3, 5, 7] if trial != "lu_one_call" else list(range(10)))
    if trial != "one_at_a_time":
        assert sizes == ([3, 3] if trial == "lu_3_a_call" else [10])
        assert sorted(map(id, built)) == sorted(map(id, states.values()))


def test_fc_sweep_all_unique_above_threshold():
    res = solver.fc_sweep(double_well(0.0), [1.0], [2.0, 3.0, 4.0], SolverConfig())
    assert all(r.unique for r in res.rows)
    assert res.threshold == 2.0


def test_fc_sweep_threshold_does_not_depend_on_the_grid_order():
    # the threshold is the smallest grid magnitude from which every larger
    # one is unique, whatever the grid's order; the rows keep that order
    sweeps = [solver.fc_sweep(double_well(1.0), [1.0], grid)
              for grid in ([0.5, 2.0, 3.0], [2.0, 0.5, 3.0], [3.0, 2.0, 0.5])]
    assert [res.threshold for res in sweeps] == [2.0, 2.0, 2.0]
    rows = [{row.magnitude: dataclasses.asdict(row) for row in res.rows} for res in sweeps]
    assert rows[0] == rows[1] == rows[2]
    assert [row.magnitude for row in sweeps[2].rows] == [3.0, 2.0, 0.5]


def test_fc_sweep_runs_on_the_calling_thread_only():
    # the sweep keeps its threads keyword for callers that pass 1
    args = (double_well(0.0), [1.0], [0.5, 2.0, 3.0], SolverConfig())
    with pytest.raises(ValueError, match="threads"):
        solver.fc_sweep(*args, threads=2)
    assert solver.fc_sweep(*args, threads=1) == solver.fc_sweep(*args)


def test_fc_sweep_zero_magnitude_flagged():
    res = solver.fc_sweep(double_well(0.0), [1.0], [0.0, 2.0], SolverConfig())
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


def test_solver_config_refuses_an_integer_past_the_double_range():
    with pytest.raises(ValueError, match="grad_tol must be a finite number"):
        SolverConfig.from_json('{"grad_tol": 1' + "0" * 400 + "}")
