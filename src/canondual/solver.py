"""Concave maximization of the dual objective over the certified region.

The certified region {G(s) positive definite, domain slacks positive} is open
and convex, and the dual objective is concave on it, so the main solve is an
interior-point ascent: maximize

    Pi_d(s) + mu * log det G(s) + mu * sum log(slack_k(s))

by damped Newton steps for a geometrically shrinking barrier weight mu, then
polish with barrier-free Newton when the maximizer is strictly interior.
Each barrier weight runs until its point is centred: the squared Newton
decrement g'(-H)^-1 g of the barrier objective is at most _CENTERING * mu
(Nesterov and Nemirovski 1994; Boyd and Vandenberghe 2004, section 11.3),
or the bare gradient is within the solve's tolerance.
The barrier ascent, the polish and the multistart root search of
``dual_critical_points`` run one damped-Newton loop, ``_damped_newton``,
with callbacks from ``_barrier`` and ``_stationarity``: the ascent
backtracks on the barrier value, the other two on the norm of the dual
gradient.  All three step on ``dual.DualPoint``, a point factorized once
by ``dual.factor_point``: the ascent and the polish by Cholesky, where a
trial point is feasible when its domain slacks are positive and the factor
exists (for the polish, also that of G shifted by the boundary tolerance);
the root search, where G may be indefinite, by an LU solve.  The point
owns the barrier: its value and derivatives at every mu come from the
factor and the domain slacks of ``Problem.coordinate_rows``.  The line
search makes its first trials one at a time; when none of them is
accepted, it screens the domain of all the shorter steps at once
(``dual.screen``) and factorizes only the points inside, with the trials
and the accepted step of halving one step at a time.  A trial builds only
what its merit reads, the barrier value or the bare gradient: the Hessian
and L^-1 are formed only at the points the loop accepts.  Each outer step
starts from the factorized point the last one ended at, and the
convergence test reads that point: a Cholesky test of G minus the
feasibility margin and the bare gradient from the factor.  The
eigendecomposition is used only by phase one, the report and triality
classification.  For a continuous problem with an interior certificate the
report refines x = G^-1 f by one Newton step on the primal gradient,
evaluated in np.longdouble, so that x_bar does not depend on which iterate
within an ulp or two of the root the ascent ended at.  Feasibility phase
one finds a strictly positive-definite start by a doubling scan along the
domain-feasible direction followed by projected subgradient ascent on the
smallest eigenvalue.

Degenerate instances (symmetric inputs, boundary maximizers) go through the
quadratic perturbation scheme: at round k the operator gains delta_k * I and
the input gains delta_k * x_k for an anchor point x_k, the perturbed dual is
solved exactly, the anchor moves to the recovered primal point (snapped to
signs for sign-integer problems), and delta_k shrinks geometrically.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import dual, model, triality
from .dual import Membership, SolveReport
from .errors import CanonDualError, EmptyInterior, MaxIterations, RangeViolation, SingularG
from .model import CanonicalTerm, Problem, TermKind

_ARMIJO = 1e-4
# Line-search trials per Newton step; the last is t = 2^-39.  From t = 2^-41
# on, _ARMIJO * t < 2^-54, so m - _ARMIJO * t * m rounds back to m and a trial
# that does not lower the gradient-norm merit would pass the Armijo test.
_HALVINGS = 40
# The first _SINGLE_STEPS trials of a line search, t = 1 .. 1/8, are factorized
# one at a time: most searches stop among them.  The others, t = 2^-4 ..
# 2^-39 (exact), are formed and screened for the domain as one stack.
_SINGLE_STEPS = 4
_STACKED_STEPS = np.ldexp(1.0, -np.arange(_SINGLE_STEPS, _HALVINGS))[:, None]
_MU_FLOOR = 1e-12
# A barrier run is centred once the squared Newton decrement g'(-H)^-1 g of
# the barrier objective is at most _CENTERING * mu: the decrement of that
# objective over mu is then at most 1/2.
_CENTERING = 0.25
_FEAS_MARGIN = 1e-7
# fc_sweep counts two stationary points as one cluster within this distance
CLUSTER_RADIUS = 1e-5


@dataclass
class SolverConfig:
    barrier_weight: float = 1.0
    barrier_shrink: float = 0.2
    max_outer: int = 40
    max_inner: int = 60
    grad_tol: float = 1e-9
    step_tol: float = 1e-9
    perturb_delta0: float = 0.1
    perturb_shrink: float = 0.5
    max_perturb_rounds: int = 30
    seed: int = 0

    def __post_init__(self):
        # the values may come from a --config file: check types before ranges
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise ValueError(f"{f.name} must be an integer, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        for name in ("barrier_weight", "max_outer", "max_inner", "grad_tol", "step_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("barrier_shrink", "perturb_shrink"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.perturb_delta0 < 0 or self.max_perturb_rounds < 0:
            raise ValueError("perturbation parameters must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def from_json(cls, text) -> "SolverConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"solver config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver config fields {sorted(unknown)}")
        return cls(**d)


def _barrier(p: Problem, mu: float) -> tuple:
    """``_damped_newton`` callbacks for ascent of the barrier objective: a
    state is a Cholesky ``dual.DualPoint``, the merit is the negated
    ``DualPoint.barrier``, the slope g'd."""
    return (partial(dual.factor_point, p), partial(dual.screen, p),
            lambda point: -point.barrier(mu), lambda g, d, m: float(g @ d),
            lambda point: point.barrier_derivs(mu))


def _stationarity(p: Problem, certified: bool) -> tuple:
    """``_damped_newton`` callbacks for grad = 0 on the bare dual, with the
    gradient norm as merit and slope.  A state is a ``dual.DualPoint``.

    Value-based line searches stall once the remaining improvement falls
    below the rounding of the objective itself; descending on the gradient
    norm instead converges to stationarity at machine precision.  With
    ``certified`` the domain is the certified region with G nonsingular by
    ``dual.boundary_tol`` (Cholesky points that clear the boundary); without
    it, every point with nonnegative domain slacks and nonsingular G (LU
    points).
    """
    if certified:
        def trial(s, slacks=None):
            point = dual.factor_point(p, s, slacks=slacks)
            return point if point is not None and point.clears(0.0) else None
    else:
        trial = partial(dual.factor_point, p, cholesky=False)
    return (trial, partial(dual.screen, p, cholesky=certified), _gradient_norm,
            lambda g, d, m: m, lambda point: point.barrier_derivs(0.0))


def _gradient_norm(point: dual.DualPoint) -> float:
    """The norm of the bare gradient, the merit of the root search and the
    polish.  Far out in the domain it can overflow: the merit is then inf,
    which the line search refuses, so the overflow is not warned about."""
    g = point.bare_grad
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(g))


def _damped_newton(s: np.ndarray, trial, screen, merit, slope, derivatives, tol: float,
                   max_iter: int, step_tol: Optional[float] = None, state=None,
                   centred: Optional[float] = None) -> tuple:
    """Damped Newton iteration with a backtracking line search.

    ``trial(s, slacks=None)`` is the state at s, or None outside the domain;
    ``slacks``, when given, are the domain slacks at s that passed
    ``screen``, which is ``dual.screen`` for the same domain;
    ``derivatives(state)`` is the pair (g, H).  The direction d solves
    (-H) d = g, replaced by the scaled gradient when ``slope(g, d, m)`` is
    not positive.  A step of length t = 2^-k, k = 0 .. _HALVINGS - 1, is
    accepted when the finite ``merit`` of its state is at most
    m - _ARMIJO * t * slope(g, d, m), where m is the current merit; the
    first such t, the longest, is taken.  The first _SINGLE_STEPS trials are
    made one at a time.  When none of them is accepted, the other points
    s + t d are formed as one stack and screened in one call, and only those
    that pass are handed to ``trial`` with their slacks: a point the screen
    refuses would have been a None state, and the stack holds the same
    numbers, so the accepted step is that of halving t one step at a time,
    to the bit.  Stops at |g| <= tol; with ``centred``, also when the
    squared Newton decrement g'd lies in [0, centred] (a negative g'd means
    -H is not numerically definite, and says nothing); when no step is
    accepted; after ``max_iter`` steps; or, with ``step_tol``, after a step
    shorter than step_tol * (1 + |s|).  ``state``, when given, is
    ``trial(s)`` already computed by the caller.  Returns (s, state, steps);
    the state is None when the start is outside the domain.  Only accepted
    states reach ``derivatives``, so a refused trial builds no more than its
    merit reads.
    """
    if state is None:
        state = trial(s)
        if state is None:
            return s, None, 0
    m = merit(state)
    for it in range(max_iter):
        g, H = derivatives(state)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return s, state, it
        d = _solve_newton(H, g)
        if centred is not None and 0.0 <= float(g @ d) <= centred:
            return s, state, it
        rate = slope(g, d, m)
        if rate <= 0.0:
            d = g / max(1.0, gnorm)
            rate = slope(g, d, m)
        t = 1.0
        for k in range(_HALVINGS):
            if k < _SINGLE_STEPS:
                z = s + t * d
                zstate = trial(z)
            else:
                j = k - _SINGLE_STEPS
                if j == 0:
                    Z = s + _STACKED_STEPS * d
                    outside, slacks = screen(Z)
                z = Z[j]
                zstate = None if outside[j] else trial(z, slacks=slacks[j])
            if zstate is not None:
                zm = merit(zstate)
                if math.isfinite(zm) and zm <= m - _ARMIJO * t * rate:
                    break
            t *= 0.5
        else:
            return s, state, it + 1
        s, state, m = z, zstate, zm
        if step_tol is not None and (t * float(np.linalg.norm(d))
                                     <= step_tol * (1.0 + float(np.linalg.norm(s)))):
            return s, state, it + 1
    return s, state, max_iter


def _solve_newton(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction from (-H) d = g with a ridge fallback: the ascent step
    of a concave objective, and the root step H d = -g for g = 0."""
    scale = float(np.max(np.abs(H))) + 1.0
    A = -H
    for ridge in (0.0, 1e-12 * scale, 1e-8 * scale, 1e-4 * scale):
        try:
            d = np.linalg.solve(A if ridge == 0.0 else A + ridge * np.eye(len(g)), g)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(d)):
            return d
    return g.copy()


def _interior_converged(point: dual.DualPoint, gtol: float) -> bool:
    """Whether a barrier point is a strictly interior stationary point of the
    bare dual: it clears the feasibility margin (``DualPoint.clears``)
    and its own bare gradient has norm <= gtol."""
    return point.clears(_FEAS_MARGIN * point.p.f_scale) and _gradient_norm(point) <= gtol


def _strictly_feasible(p: Problem, s: np.ndarray, margin: float) -> Optional[dual.GapMatrix]:
    """GapMatrix if s is strictly inside the certified region by the margin,
    else None."""
    if (dual.domain_slacks(p, s) <= margin).any():
        return None
    gm = dual.assemble_G(p, s)
    return gm if gm.min_eig > margin else None


def _term_starts(p: Problem, u) -> np.ndarray:
    """Term coordinates u units inside their domain edge: edge + direction *
    unit * u, with unit 1 + |edge| for a quartic term and |alpha| otherwise
    (an xlogx coordinate has edge 0 and no bound)."""
    rows = p.coordinate_rows
    q = len(p.dual_terms)
    edge, alpha = rows.edge[:q], rows.alpha[:q]
    quartic = [p.terms[i].kind is TermKind.QUARTIC for i in p.dual_terms]
    unit = np.where(quartic, 1.0 + np.abs(edge), np.abs(alpha))
    return edge + rows.direction[:q] * unit * u


def _phase1(p: Problem) -> tuple:
    """Strictly feasible start s and the GapMatrix that accepted it, or
    EmptyInterior after the search budget."""
    margin = _FEAS_MARGIN * p.f_scale
    q = len(p.dual_terms)
    base = np.zeros(p.dual_dim)
    base[:q] = _term_starts(p, [math.e if p.terms[i].kind is TermKind.EXPONENTIAL else 1.0
                                for i in p.dual_terms])
    if p.is_sign_integer:
        gm0 = dual.assemble_G(p, base)  # base[q:] is still zero
        base[q:] = 0.5 * (max(0.0, -gm0.min_eig) + 1.0)
    direction = p.coordinate_rows.direction

    gm = _strictly_feasible(p, base, margin)
    if gm is not None:
        return base, gm
    t = 1.0
    for _ in range(24):
        trial = base + t * direction
        gm = _strictly_feasible(p, trial, margin)
        if gm is not None:
            return trial, gm
        t *= 2.0

    # Projected subgradient ascent on the smallest eigenvalue of G.
    s = base.copy()
    step = 1.0 + float(np.max(np.abs(base)))
    best = -math.inf
    for it in range(250):
        s = _project_domain(p, s, margin)
        gm = dual.assemble_G(p, s)
        if gm.min_eig > margin and (dual.domain_slacks(p, s) > 0.0).all():
            return s, gm
        best = max(best, gm.min_eig)
        vmin = gm.decomp.eigvecs[:, 0]
        sub = vmin @ dual.coordinate_images(p, vmin)  # d lambda_min / ds
        norm = float(np.linalg.norm(sub))
        if norm == 0.0:
            break
        s = s + step * sub / norm
        if it % 25 == 24:
            step *= 0.5
    exc = EmptyInterior(
        f"no strictly positive-definite dual point found (best min eigenvalue {best:.3e})"
    )
    exc.best_min_eig = best
    raise exc


def _project_domain(p: Problem, s: np.ndarray, margin: float) -> np.ndarray:
    """s with every coordinate whose domain slack is below the margin moved
    to edge + direction * margin."""
    rows = p.coordinate_rows
    lift = rows.index[dual.domain_slacks(p, s) < margin]
    s = s.copy()
    s[lift] = rows.edge[lift] + rows.direction[lift] * margin
    return s


def solve_dual(p: Problem, cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Maximize the dual objective over the certified region.

    Interior convergence yields a stationary dual point paired with the
    recovered primal point and a matched-value check; a maximizer pinned to
    the region boundary is reported with ``boundary_flag`` set and the
    pseudoinverse recovery residual recorded.  Raises EmptyInterior when
    phase one finds no strictly positive-definite operator, MaxIterations
    when ascent stalls strictly inside without reaching the gradient
    tolerance.
    """
    cfg = cfg or SolverConfig()
    s, _ = _phase1(p)
    gtol = cfg.grad_tol * p.f_scale

    iterations = 0
    mu = cfg.barrier_weight
    point = None  # each outer step starts from the factorized point the last one ended at
    for _ in range(cfg.max_outer):
        s, point, its = _damped_newton(s, *_barrier(p, mu), tol=gtol,
                                       max_iter=cfg.max_inner, step_tol=cfg.step_tol,
                                       state=point, centred=_CENTERING * mu)
        if point is None:
            raise EmptyInterior("ascent started at an infeasible point")
        iterations += its
        mu *= cfg.barrier_shrink
        if mu < _MU_FLOOR or (mu < 1e-4 and _interior_converged(point, gtol)):
            break

    # Barrier-free polish while the iterate stays strictly interior.
    s, _, its = _damped_newton(s, *_stationarity(p, certified=True),
                               tol=min(gtol, 1e-12 * p.f_scale), max_iter=cfg.max_inner)
    iterations += its

    gm = dual.assemble_G(p, s)
    at_domain_edge = bool((dual.domain_slacks(p, s) <= 1e-6 * p.f_scale).any())
    try:
        grad_norm = float(np.linalg.norm(gm.grad))
    except SingularG:
        grad_norm = float("nan")

    interior = gm.membership is Membership.INTERIOR and not at_domain_edge
    interior_ok = interior and math.isfinite(grad_norm) and grad_norm <= gtol
    if interior and not interior_ok:
        raise MaxIterations(
            f"interior ascent stalled with gradient norm {grad_norm:.3e} > {gtol:.3e}"
        )

    return _build_report(gm, status="interior" if interior_ok else "boundary",
                         iterations=iterations, grad_norm=grad_norm)


def _build_report(gm: dual.GapMatrix, status: str, iterations: int, grad_norm: float,
                  perturb_rounds: int = 0, x_override: Optional[np.ndarray] = None,
                  messages: Sequence[str] = ()) -> SolveReport:
    """The report of the dual point ``gm``, paired with x = [G(s)]^+ f or
    with ``x_override``."""
    p = gm.p
    messages = list(messages)
    if x_override is not None:
        x = np.asarray(x_override, dtype=float)
    else:
        try:
            x = gm.x
        except RangeViolation as exc:
            x = gm.pinv_f
            messages.append(f"input outside range of G at the reported dual point: {exc}")
        else:
            if status == "interior" and not p.is_sign_integer:
                x = _refine_x(p, x)
    rec_residual = float(np.linalg.norm(gm.G @ x - p.f))
    primal = model.eval_primal(p, x)
    if gm.membership is Membership.OUTSIDE:
        # The evaluation formula is only a certified lower bound on the
        # positive semidefinite side; report no bound elsewhere.
        dual_value = float("nan")
        messages.append("dual point outside the certified region; no dual bound reported")
    else:
        try:
            dual_value = gm.value
        except CanonDualError:
            dual_value = float("nan")
    residual = abs(primal - dual_value) if math.isfinite(dual_value) else float("nan")

    try:
        label = triality.classify_pair(gm, x).label.value
    except CanonDualError:
        label = (
            triality.TrialityLabel.BOUNDARY_DEGENERATE.value
            if status != "interior"
            else triality.TrialityLabel.UNCLASSIFIED.value
        )
    return SolveReport(
        x_bar=x,
        sigma_bar=gm.s,
        primal_value=primal,
        dual_value=dual_value,
        duality_residual=residual,
        triality_class=label,
        iterations=iterations,
        boundary_flag=(status != "interior") or gm.is_singular(),
        status=status,
        grad_norm=grad_norm,
        recovery_residual=rec_residual,
        perturb_rounds=perturb_rounds,
        messages=tuple(messages),
    )


def _refine_x(p: Problem, x: np.ndarray) -> np.ndarray:
    """x after one Newton step on grad P(x) = 0: the residual in extended
    precision, the step from ``triality.hessian_primal`` in double, added in
    extended precision and rounded once.  This makes x the correctly rounded
    stationary point in practice, whichever iterate the dual solve ended at.
    The input x comes back if the step fails or does not lower the residual."""
    try:
        r0 = model.grad_primal(p, x, dtype=np.longdouble)
        step = np.linalg.solve(triality.hessian_primal(p, x), r0.astype(float))
        x1 = (x.astype(np.longdouble) - step).astype(float)
        r1 = model.grad_primal(p, x1, dtype=np.longdouble)
    except (CanonDualError, np.linalg.LinAlgError):
        return x
    if np.all(np.isfinite(x1)) and float(r1 @ r1) < float(r0 @ r0):
        return x1
    return x


# Quadratic perturbation -------------------------------------------------


def _perturbed_problem(p: Problem, delta: float, anchor: np.ndarray) -> Problem:
    ridge = CanonicalTerm(kind=TermKind.PLAIN_QUADRATIC, factor=np.eye(p.n), alpha=delta)
    return Problem(n=p.n, terms=tuple(p.terms) + (ridge,), f=p.f + delta * anchor,
                   variables=p.variables)


def sign_round(x) -> np.ndarray:
    """Componentwise signs, with zeros broken toward +1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def _draw_anchor(p: Problem, rng: np.random.Generator) -> np.ndarray:
    if p.is_sign_integer:
        return rng.choice([-1.0, 1.0], size=p.n)
    v = rng.standard_normal(p.n)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else np.ones(p.n) / math.sqrt(p.n)


def perturbed_solve(p: Problem, cfg: Optional[SolverConfig] = None,
                    base: Optional[SolveReport] = None) -> SolveReport:
    """Solve through the shrinking-perturbation rounds.

    Tries the unperturbed dual first and returns immediately on interior
    certification (zero rounds); ``base``, when given, is the caller's
    report of ``solve_dual(p, cfg)`` and stands in for that first solve.
    Each round solves the dual of the problem perturbed by the current
    anchor; the anchor follows the recovered primal point, re-randomized
    (seeded) if a round stalls without certification.  The returned report
    is evaluated against the original problem and keeps the
    ``perturbation`` status, since boundary instances carry no interior
    certificate.
    """
    cfg = cfg or SolverConfig()
    base_report = base
    if base_report is None:
        try:
            base_report = solve_dual(p, cfg)
        except (EmptyInterior, MaxIterations):
            base_report = None
    if base_report is not None and base_report.status == "interior":
        return base_report
    if cfg.perturb_delta0 == 0.0:
        if base_report is not None:
            return base_report
        raise MaxIterations("zero perturbation requested and the plain dual solve failed")

    rng = np.random.default_rng(cfg.seed)
    anchor = _draw_anchor(p, rng)
    delta = cfg.perturb_delta0
    best = None  # (primal value, x, report, rounds)
    rounds = 0
    idle_redraws = 0
    for rounds in range(1, cfg.max_perturb_rounds + 1):
        pk = _perturbed_problem(p, delta, anchor)
        try:
            rep = solve_dual(pk, cfg)
        except (EmptyInterior, MaxIterations):
            anchor = _draw_anchor(p, rng)
            delta = max(delta * cfg.perturb_shrink, 1e-14)
            continue
        x_new = sign_round(rep.x_bar) if p.is_sign_integer else rep.x_bar
        value = model.eval_primal(p, x_new)
        improved = best is None or value < best[0] - 1e-12
        if improved:
            best = (value, x_new.copy(), rep, rounds)
        stalled = float(np.linalg.norm(x_new - anchor)) <= cfg.step_tol * (1.0 + float(np.linalg.norm(anchor)))
        if stalled and rep.status == "interior":
            return _perturbation_report(p, x_new, rep, rounds)
        if stalled:
            idle_redraws = 0 if improved else idle_redraws + 1
            if idle_redraws >= 5:
                break
            anchor = _draw_anchor(p, rng)
        else:
            anchor = x_new
        delta *= cfg.perturb_shrink
    if best is not None:
        value, x_new, rep, _ = best
        report = _perturbation_report(p, x_new, rep, rounds)
        report.messages = report.messages + ("perturbation rounds exhausted before the anchor settled",)
        return report
    raise MaxIterations("perturbation rounds exhausted without a single successful dual solve")


def _perturbation_report(p: Problem, x: np.ndarray, rep: SolveReport, rounds: int) -> SolveReport:
    return _build_report(dual.assemble_G(p, rep.sigma_bar), status="perturbation",
                         iterations=rep.iterations, grad_norm=rep.grad_norm,
                         perturb_rounds=rounds, x_override=x)


# Existence and sweep harnesses ------------------------------------------


@dataclass
class ExistenceResult:
    status: str  # interior_nonempty | likely_empty
    witness: Optional[np.ndarray]
    min_eig: float

    @property
    def nonempty(self) -> bool:
        return self.status == "interior_nonempty"


def existence_check(p: Problem) -> ExistenceResult:
    """Search for a strictly positive-definite dual witness.

    A returned witness is verified by its smallest eigenvalue; failure is
    only the heuristic 'likely empty', never a proof of emptiness.
    """
    try:
        s, gm = _phase1(p)
    except EmptyInterior as exc:
        return ExistenceResult(status="likely_empty", witness=None,
                               min_eig=getattr(exc, "best_min_eig", float("nan")))
    return ExistenceResult(status="interior_nonempty", witness=s, min_eig=gm.min_eig)


def dual_critical_points(p: Problem, cfg: Optional[SolverConfig] = None,
                         n_starts: int = 12, include_certified: bool = True,
                         base: Optional[SolveReport] = None) -> list:
    """Multistart damped Newton on the dual gradient across the dual domain.

    Returns deduplicated stationary points as (sigma, dual value, membership)
    sorted by descending value then lexicographic sigma.  This searches the
    whole nonsingular dual domain, not only the certified region, so it sees
    the local pairs on the negative-definite side as well.  With
    ``include_certified`` the certified-region maximizer joins the starts;
    ``base``, when given, is the caller's report of ``solve_dual(p, cfg)``
    and saves solving for it again.
    """
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    found = []
    if include_certified:
        try:
            rep = base if base is not None else solve_dual(p, cfg)
            if rep.status == "interior":
                found.append(np.asarray(rep.sigma_bar))
        except (EmptyInterior, MaxIterations):
            pass
    gtol = max(cfg.grad_tol, 1e-11) * p.f_scale
    starts = _ladder_starts(p) + [_random_dual_start(p, rng) for _ in range(n_starts)]
    newton = _stationarity(p, certified=False)
    for s in starts:
        s, state, _ = _damped_newton(s, *newton, tol=gtol, max_iter=60)
        if state is not None and _gradient_norm(state) <= gtol:
            found.append(s)
    merged = []
    for s in found:
        try:
            gm = dual.assemble_G(p, s)
            val = gm.value
        except CanonDualError:
            continue
        merged.append((s, val, gm.membership))
    merged.sort(key=lambda item: (-item[1], tuple(item[0])))
    out = []
    for s, val, member in merged:
        if all(np.linalg.norm(s - prev[0]) > 1e-7 * (1.0 + np.linalg.norm(s)) for prev in out):
            out.append((s, val, member))
    return out


def _ladder_starts(p: Problem) -> list:
    """Deterministic start points marching away from each domain boundary.

    Guarantees basin coverage for low-dimensional duals where pure random
    starts can miss a stationary point between the boundary and zero.
    """
    q = len(p.dual_terms)
    xlogx = np.array([p.terms[i].kind is TermKind.XLOGX for i in p.dual_terms], dtype=bool)
    starts = []
    for u in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0):
        s = np.full(p.dual_dim, u)
        s[:q] = _term_starts(p, np.where(xlogx, u - 1.0, u))
        starts.append(s)
    return starts


_RANDOM_UNITS = {
    TermKind.QUARTIC: lambda rng: rng.uniform(0.02, 3.0),
    TermKind.EXPONENTIAL: lambda rng: rng.uniform(0.05, 4.0),
    TermKind.XLOGX: lambda rng: rng.normal(0.0, 2.0),
}


def _random_dual_start(p: Problem, rng: np.random.Generator) -> np.ndarray:
    s = np.empty(p.dual_dim)
    q = len(p.dual_terms)
    s[:q] = _term_starts(p, [_RANDOM_UNITS[p.terms[i].kind](rng) for i in p.dual_terms])
    s[q:] = rng.uniform(0.05, 3.0, size=p.dual_dim - q)
    return s


@dataclass
class FcRow:
    magnitude: float
    clusters: list
    n_clusters: int
    boundary: bool
    unique: bool
    outcome: str = ""  # status of the certified-region solve at this magnitude


@dataclass
class FcSweepResult:
    rows: list
    threshold: Optional[float]


def fc_sweep(p_template: Problem, direction, grid: Sequence[float],
             cfg: Optional[SolverConfig] = None, n_starts: int = 12,
             threads: int = 1) -> FcSweepResult:
    """Uniqueness-versus-input-magnitude sweep.

    For each magnitude the input is magnitude * direction and the dual
    stationary points are collected by multistart; a magnitude is flagged
    unique when exactly one cluster survives and no boundary degeneracy was
    hit.  The reported threshold is the smallest grid magnitude from which
    every larger grid entry is unique.  With threads > 1 the magnitudes are
    solved on a thread pool; the rows keep the grid's order.
    """
    cfg = cfg or SolverConfig()
    direction = np.asarray(direction, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    direction = direction / norm
    grid = [float(m) for m in grid]

    def run_one(m: float) -> FcRow:
        pm = Problem(n=p_template.n, terms=p_template.terms, f=m * direction,
                     variables=p_template.variables)
        rep = None
        try:
            rep = solve_dual(pm, cfg)
            outcome = rep.status
        except EmptyInterior:
            outcome = "empty_interior"
        except MaxIterations:
            outcome = "stalled"
        points = dual_critical_points(pm, cfg, n_starts=n_starts,
                                      include_certified=rep is not None, base=rep)
        boundary = outcome != "interior"
        clusters = []
        for s, _, _ in points:
            if all(np.linalg.norm(s - c) > CLUSTER_RADIUS for c in clusters):
                clusters.append(s)
        unique = (len(clusters) == 1) and not boundary
        return FcRow(magnitude=m, clusters=[list(map(float, c)) for c in clusters],
                     n_clusters=len(clusters), boundary=boundary, unique=unique,
                     outcome=outcome)

    if threads > 1 and len(grid) > 1:
        # loaded here: concurrent.futures brings logging, which a solve never runs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(threads, len(grid))) as pool:
            rows = list(pool.map(run_one, grid))
    else:
        rows = [run_one(m) for m in grid]
    threshold = None
    for row in reversed(rows):
        if row.unique:
            threshold = row.magnitude
        else:
            break
    return FcSweepResult(rows=rows, threshold=threshold)


def solve_cubic_dual(alpha: float, lam: float, f_norm: float) -> np.ndarray:
    """Real roots, descending, of (sigma/alpha + lam) sigma^2 = 0.5 f_norm^2.

    The radially symmetric quartic-well dual stationarity condition; at most
    three real roots ordered sigma_1 >= 0 >= sigma_2 >= sigma_3 when all
    three exist.  Roots are polished by Newton steps on the cubic.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if f_norm < 0:
        raise ValueError("f_norm must be nonnegative")
    rhs = 0.5 * f_norm * f_norm
    coeffs = np.array([1.0 / alpha, lam, 0.0, -rhs])
    roots = np.roots(coeffs)
    real = []
    for r in roots:
        if abs(r.imag) <= 1e-8 * max(1.0, abs(r.real)):
            real.append(float(r.real))
    polished = []
    for r in real:
        for _ in range(3):
            val = r * r * (r / alpha + lam) - rhs
            der = 3.0 * r * r / alpha + 2.0 * lam * r
            if abs(der) < 1e-12 * (1.0 + abs(r)):
                break
            r = r - val / der
        polished.append(r)
    return np.array(sorted(polished, reverse=True))
