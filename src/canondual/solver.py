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
or the bare gradient is within the solve's tolerance.  After each outer
step above the floor _MU_FLOOR, a centred point that clears the
feasibility margin goes to the polish, Newton on grad Pi_d = 0, once its
bare Newton step lies well inside the Dikin ellipsoid of the barrier
(``DualPoint.newton_radius`` at most _DIKIN): the step then stays in the
certified region, and the test reads no absolute scale.  Toward a strictly
interior maximizer that radius falls with mu; toward a boundary maximizer
it grows, and the barrier runs to the floor.  When the polished point is
a strictly interior stationary point the solve ends.  Otherwise the
barrier goes on from its own point, which is not handed over again while
the barrier takes no step from it.  The barrier's last point, at the
floor or after ``max_outer`` steps, is polished where the polish can start
from it, by the same call: ``solve_dual`` polishes in one place.
The barrier ascent, the polish and the multistart root search run one
damped-Newton loop, ``_damped_newton``, with callbacks from ``_barrier``,
``_polish`` and ``_roots``: the ascent backtracks on the barrier value, the
other two on the norm of the dual gradient.  The loop runs a stack of starts
in lockstep, and each start ends where it would alone, to the bit.  The
ascent and the polish pass one start.  The root search of
``_critical_points``, which serves ``dual_critical_points`` and ``fc_sweep``,
passes the starts of all its problems (a sweep's magnitudes) as one stack,
each row with its own input f, tolerance and ``Problem``, since G(s) does
not depend on f (as many problems as keep the stack's points within a fixed
count of numbers).  All three step on
``dual.DualPoint``, a point factorized once: the ascent and the polish by
Cholesky (``dual.factor_point``, one trial at a time), where a trial point
is feasible when its domain slacks are positive and the factor exists (for
the polish, also that of G shifted by the boundary tolerance); the root
search, where G may be indefinite, by LU, a stack of trials at a time
(``dual.factor_stack``: one stacked operator, one stacked solve and the
stacked bare gradients), each call within a fixed count of numbers.  The
point owns the barrier: its value and derivatives at every mu come from
the factor and the domain slacks of ``Problem.coordinate_rows``.  Each
iteration takes the derivatives of every running start in one call (for
the root search, the Hessians A'G^-1 A of all of them in stacked solves,
``dual.bare_hessians``) and their Newton directions in one stacked solve,
with the ridge fallback only for the rows that need it.  The line search
runs in rounds over the starts still searching: one round for each of the
first step lengths, then one for all the shorter steps, which go to the
trial in one call, longest step first across all starts.  The trial alone
decides acceptance and the domain: its factorization tests each point once
(``dual.screen`` in ``dual.factor_point`` and ``dual.factor_stack``) and
refuses those outside.  It returns the state of each start's first point
within its Armijo bound, the longest step, and of no other, so each
start's trials and accepted step are those of halving one step at a time.
A Cholesky trial makes the points one at a time, a stacked LU trial in
calls of a bounded size (a small G takes a whole round in one call); both
drop a start's later points once it has accepted one.  A trial builds
only what its merit reads, the barrier value or the bare gradient: the
Hessian and L^-1 are formed only at the points the loop accepts, and a
stacked LU trial builds a point only where it is accepted.  Each outer
step starts from the factorized point the last one ended at, and the
handover and the test of the polished point read the factorized point: the
Newton radius from the derivatives the centring test formed, a Cholesky
test of G minus the feasibility margin and the bare gradient from the
factor.  The eigendecomposition is used only by phase one's start of the
sign multipliers and its subgradient ascent, the report and triality
classification.  For a continuous problem with an interior certificate the
report refines x = G^-1 f by one Newton step on the primal gradient,
evaluated in np.longdouble, which brings x_bar to within an ulp or two
(of its largest entry) of the primal stationary point; its last bits can
still move with the iterate the ascent ended at.  Feasibility phase one
finds a strictly positive-definite start by a Cholesky test of G minus the
margin at a base point and along a doubling scan in the domain-feasible
direction, then by projected subgradient ascent on the smallest
eigenvalue.

Degenerate continuous instances (symmetric inputs, boundary maximizers) can
go through the quadratic perturbation scheme of ``perturbed_solve``: at
round k the operator gains delta_k * I and the input gains delta_k * x_k for
an anchor point x_k, the perturbed dual is solved exactly, the anchor moves
to the recovered primal point, and delta_k shrinks geometrically.  It
refuses a sign problem: the sign pipeline of ``integer`` rounds the point of
its one dual solve instead.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import dual, model, triality
from .dual import Membership, SolveReport
from .errors import (CanonDualError, DimensionMismatch, EmptyInterior, MaxIterations,
                     RangeViolation, SingularG)
from .model import CanonicalTerm, Problem, TermKind

_ARMIJO = 1e-4
# Line-search trials per Newton step; the last is t = 2^-39.  From t = 2^-41
# on, _ARMIJO * t < 2^-54, so m - _ARMIJO * t * m rounds back to m and a trial
# that does not lower the gradient-norm merit would pass the Armijo test.
_HALVINGS = 40
_STEP_LENGTHS = [math.ldexp(1.0, -k) for k in range(_HALVINGS)]  # exact
# The first _SINGLE_STEPS trials of a line search, t = 1 .. 1/8, are handed
# to the trial one round each: most searches stop among them.  The others,
# t = 2^-4 .. 2^-39, are formed as one stack and handed over in one round.
_SINGLE_STEPS = 4
_STACKED_STEPS = np.array(_STEP_LENGTHS[_SINGLE_STEPS:])[:, None]
_STACKED_ARMIJO = _ARMIJO * _STACKED_STEPS[:, 0]
# the rounds of a line search: one per single step length, then one for all
# the stacked ones
_ROUNDS = _STEP_LENGTHS[:_SINGLE_STEPS] + [None]
# A stacked call of the root search holds at most this many numbers in each
# of its stacked arrays (see _row_size): 0.5 MB of doubles, which a whole
# deep round of the 1x1 and 2x2 wells fits in.  One lockstep stack of it
# holds the points of at most _SEARCH_ELEMENTS numbers' worth of starts.
_STACK_ELEMENTS = 2**16
_SEARCH_ELEMENTS = 2**22
_MU_FLOOR = 1e-12
# A centred barrier point that clears the feasibility margin goes to the
# polish once its bare Newton step d has DualPoint.newton_radius r at most
# _DIKIN: r < 1 keeps s + d in the certified region (the Dikin ellipsoid of
# the self-concordant barrier; Nesterov and Nemirovski 1994), and r <= 1/2
# keeps G(s + d) >= G(s) / 2 and each xlogx conjugate's second derivative
# within a factor e^(1/2), so the polish steps where the bare Hessian is
# close to the one that made its step
_DIKIN = 0.5
# A barrier run is centred once the squared Newton decrement g'(-H)^-1 g of
# the barrier objective is at most _CENTERING * mu: the decrement of that
# objective over mu is then at most 1/2.
_CENTERING = 0.25
_FEAS_MARGIN = 1e-7
# fc_sweep counts two stationary points as one cluster within this distance
CLUSTER_RADIUS = 1e-5
# the root search's random starts per problem, beside the ladder's
RANDOM_STARTS = 12


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
                    raise ValueError(f"{f.name} must be an integer, got {_clip(v)}")
            elif (isinstance(v, bool) or not isinstance(v, numbers.Real)
                  or not abs(v) <= sys.float_info.max):  # refuses nan, inf and huge ints
                raise ValueError(f"{f.name} must be a finite number, got {_clip(v)}")
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


def _clip(v, width: int = 40) -> str:
    """repr of a refused value, cut so a 400-digit one stays a short message."""
    text = repr(v)
    return text if len(text) <= width else text[: width - 3] + "..."


def _barrier(p: Problem, mu: float) -> tuple:
    """``_damped_newton`` callbacks for ascent of the barrier objective: a
    state is a Cholesky ``dual.DualPoint``, factorized one trial at a time,
    the merit is the negated ``DualPoint.barrier``, the slope g'd."""
    def merit(point):
        return -point.barrier(mu)

    return (_one_at_a_time(partial(dual.factor_point, p), merit), merit,
            lambda g, d, m: float(g @ d), _one_start(lambda point: point.barrier_derivs(mu)))


def _polish(p: Problem) -> tuple:
    """``_damped_newton`` callbacks for grad = 0 on the bare dual, with the
    gradient norm as merit and slope, in the certified region with G
    nonsingular by ``dual.boundary_tol``: a state is a Cholesky
    ``dual.DualPoint`` that clears the boundary, made one trial at a time.

    Value-based line searches stall once the remaining improvement falls
    below the rounding of the objective itself; descending on the gradient
    norm instead converges to stationarity at machine precision.
    """
    def make(s):
        point = dual.factor_point(p, s)
        return point if point is not None and point.clears(0.0) else None
    return (_one_at_a_time(make, _gradient_norm), _gradient_norm, lambda g, d, m: m,
            _one_start(lambda point: point.barrier_derivs(0.0)))


def _roots(p: Problem, problems: Sequence[Problem]) -> tuple:
    """``_damped_newton`` callbacks for grad = 0 on the bare dual, with the
    merit and slope of ``_polish``, at every point with nonnegative domain
    slacks and nonsingular G, for starts with the ``problems`` on p's terms
    (each its own f): a state is an LU ``dual.DualPoint``, made a stack of
    trials at a time by ``_lu_trials``, and the Hessians of all the starts
    come in one pass of ``dual.bare_hessians``."""
    objects = np.empty(len(problems), dtype=object)
    objects[:] = problems
    cap = _stack_rows(p)
    return (partial(_lu_trials, p, np.array([q.f for q in problems]), objects, cap),
            _gradient_norm, lambda g, d, m: m, partial(_lu_derivatives, p, cap))


def _one_at_a_time(make, merit):
    """A stack trial of ``_damped_newton`` that makes each point alone:
    ``make(z)`` is the state at z, or None outside the domain, and
    ``merit(state)`` its merit (inf where refused).  A row is accepted when
    its merit is finite and within its bound and no earlier row of its
    start is.  Past a start's accepted row, the start's rows are not made:
    each costs a factorization."""
    def trial(Z, owners, bounds):
        states, merits = {}, [math.inf] * len(Z)
        done = set()
        for a, z in enumerate(Z):
            if owners[a] in done:
                continue
            state = make(z)
            if state is not None:
                m = merits[a] = merit(state)
                if math.isfinite(m) and m <= bounds[a]:
                    states[a] = state
                    done.add(owners[a])
        return states, merits
    return trial


def _row_size(p: Problem) -> int:
    """The numbers n * max(n, R) one point of the root search on p's terms
    takes in a stacked array: its G, and its coordinate images while they
    are formed, for R the rows of ``Problem.coordinate_rows.Bt``."""
    return p.n * max(p.n, p.coordinate_rows.Bt.shape[1])


def _stack_rows(p: Problem) -> int:
    """The most rows of one stacked call of the root search on p's terms
    (``dual.factor_stack``, ``dual.bare_hessians``)."""
    return max(1, _STACK_ELEMENTS // _row_size(p))


def _lu_trials(p: Problem, f: np.ndarray, problems: np.ndarray, cap: int, Z, owners,
               bounds) -> tuple:
    """The root search's stack trial: the LU points of ``dual.factor_stack``,
    each row with the input ``f`` and the ``Problem`` of its owner, and their
    gradient-norm merits (``_gradient_norms``, inf where refused or not
    made).  A row is accepted when its merit is finite and within its bound
    and no earlier row of its start is.  The rows are made in order, in
    calls of at most ``cap`` rows (``_stack_rows``), and once a start has
    accepted a row its later rows are dropped: with the rows of a deep
    round longest step first across all starts, few are made past a start's
    accepted one, and a 1x1 or 2x2 G takes the whole round in one call.
    The accepted points are built in the call that makes them, so that no
    stack outlives its call."""
    Z, owners, bounds = np.asarray(Z, dtype=float), np.asarray(owners), np.asarray(bounds)
    states, merits = {}, np.full(len(Z), math.inf)
    accepted = np.zeros(len(problems), dtype=bool)  # per start
    waiting = np.arange(len(Z))
    while waiting.size:
        take, waiting = waiting[:cap], waiting[cap:]
        who = owners[take]
        stack = dual.factor_stack(p, Z[take], f[who], problems[who])
        kept = stack.kept
        m = merits[take[kept]] = _gradient_norms(stack.bare_grads)
        passed = kept[np.isfinite(m) & (m <= bounds[take[kept]])]
        # a start's first row to pass, its longest step, is its accepted one
        done, first = np.unique(who[passed], return_index=True)
        for j in np.sort(passed[first]).tolist():
            states[int(take[j])] = stack[j]
        accepted[done] = True
        waiting = waiting[~accepted[owners[waiting]]]
    return states, merits


def _lu_derivatives(p: Problem, cap: int, points: list) -> tuple:
    """``DualPoint.barrier_derivs(0.0)`` of LU points, a stack at a time:
    their bare gradients, and their Hessians by ``dual.bare_hessians``, at
    most ``cap`` points (``_stack_rows``) to a call."""
    H = np.concatenate([dual.bare_hessians(p, np.array([point.s for point in chunk]),
                                           np.array([point.G for point in chunk]),
                                           np.array([point.images for point in chunk]))
                        for chunk in (points[i:i + cap] for i in range(0, len(points), cap))])
    return np.array([point.bare_grad for point in points]), 0.5 * (H + H.swapaxes(1, 2))


def _one_start(derivatives):
    """The stacked derivatives of the barrier and the polish, which pass one
    start: ``derivatives(state)`` as a stack of one, a view, no copy."""
    def stacked(states):
        [state] = states
        g, H = derivatives(state)
        return g[None], H[None]
    return stacked


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a vector, to the bit: the square root of one dot
    product, without the argument handling of np.linalg.norm."""
    return math.sqrt(v.dot(v))


def _gradient_norm(point: dual.DualPoint) -> float:
    """The norm of the bare gradient, the merit of the polish and, a stack
    at a time (``_gradient_norms``), of the root search."""
    return float(_gradient_norms(point.bare_grad[None])[0])


def _gradient_norms(grads: np.ndarray) -> np.ndarray:
    """The norm of each row of a stack of gradients, with the arithmetic of
    np.linalg.norm on the row alone: it squares a vector by one vector
    product, and so does the stacked product here.  Far out in the domain a
    norm can overflow: it is then inf, which the line search refuses, so the
    overflow is not warned about."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(grads[:, None, :], grads[:, :, None])[:, 0, 0])


def _damped_newton(S: Sequence[np.ndarray], trial, merit, slope, derivatives,
                   tol, max_iter: int, step_tol: Optional[float] = None,
                   states: Optional[list] = None, centred: Optional[float] = None) -> list:
    """Damped Newton iteration with a backtracking line search, for a stack
    of starts S run in lockstep.

    ``trial(Z, owners, bounds)`` evaluates the rows of Z, points of the
    starts ``owners`` (a start's rows in order of decreasing t), and
    decides which are accepted; its own domain test refuses a row outside.
    It returns the pair (states, merits): a dict from row to state, and one
    merit per row, inf outside the domain and where the row is not made.
    ``bounds`` is the merit at which each row is accepted: a row is
    accepted when its merit is finite and within its bound and no earlier
    row of its start is, and only accepted rows have a state; the first
    call, at the starts, bounds each by inf.  A trial may leave a start's
    rows past its accepted one unmade.  ``merit(state)`` is the merit of a
    state passed in ``states``; ``derivatives(states)`` is the pair (g, H)
    of a list of states, stacked.
    Each iteration takes the derivatives and the Newton directions of every
    start still running in one call each: d solves (-H) d = g
    (``_newton_directions``), replaced by the scaled gradient when
    ``slope(g, d, m)`` is not positive.  A step of length t = 2^-k,
    k = 0 .. _HALVINGS - 1, has the bound m - _ARMIJO * t * slope(g, d, m),
    where m is the current merit, so each start takes its longest step
    within it.  The line search runs in rounds, each over every start still
    searching.  The first _SINGLE_STEPS rounds take each such start's point
    at one t.  The last round (``_deep_round``) forms the other points
    s + t d of every start left as one stack and hands them all to
    ``trial`` in one call, longest step first across all starts.  A row's
    numbers do not depend on the stack it is in, so each start's accepted
    step is that of halving t one step at a time on the start alone, to
    the bit, and each start ends where it would alone.  A start stops at
    |g| <= tol (a number, or one
    per start); with ``centred``, also when the squared Newton decrement
    g'd lies in [0, centred] (a negative g'd means -H is not numerically
    definite, and says nothing); when no step is accepted; after
    ``max_iter`` steps; or, with ``step_tol``, after a step shorter than
    step_tol * (1 + |s|).  ``states``, when given, is the state at each
    start already computed by the caller.  Returns one (s, state, steps)
    per start; the state is None when the start is outside the domain or
    its merit is not finite.
    Only accepted states reach ``derivatives``.
    """
    S = list(S)
    if states is None:
        made, merits = trial(S, list(range(len(S))), [math.inf] * len(S))
        states = [made.get(i) for i in range(len(S))]
        live = sorted(made)
    else:
        states = list(states)
        merits = list(map(merit, states))
        live = list(range(len(S)))
    tols = [tol] * len(S) if isinstance(tol, (int, float)) else list(tol)
    steps = [0] * len(S)
    for it in range(max_iter):
        if not live:
            break
        g, H = derivatives([states[i] for i in live])
        going = []
        for a, i in enumerate(live):
            gnorm = _norm(g[a])
            if gnorm > tols[i]:
                going.append((a, i, gnorm))
            else:
                steps[i] = it
        if len(going) < len(live):
            rows = [a for a, _, _ in going]
            g, H = g[rows], H[rows]
        D = _newton_directions(H, g) if going else None
        searching = {}  # start: (direction, rate)
        for b, (_, i, gnorm) in enumerate(going):
            ga, d = g[b], D[b]
            steps[i] = it
            if centred is not None and 0.0 <= float(ga @ d) <= centred:
                continue
            rate = slope(ga, d, merits[i])
            if rate <= 0.0:
                d = ga / max(1.0, gnorm)
                rate = slope(ga, d, merits[i])
            searching[i] = (d, rate)
            steps[i] = it + 1
        live = []
        for t in _ROUNDS:
            if not searching:
                break
            if t is None:
                Z, owners, t_rows, made, zms = _deep_round(S, merits, searching, trial)
            else:
                owners = list(searching)
                Z = [S[i] + t * searching[i][0] for i in owners]
                armijo = _ARMIJO * t
                made, zms = trial(Z, owners, [merits[i] - armijo * searching[i][1] for i in owners])
            for a, state in made.items():
                i = int(owners[a])
                d = searching.pop(i)[0]
                S[i], states[i], merits[i] = Z[a], state, zms[a]
                step = t if t is not None else t_rows[a]
                if step_tol is None or step * _norm(d) > step_tol * (1.0 + _norm(S[i])):
                    live.append(i)
    return list(zip(S, states, steps))


def _deep_round(S, merits, searching, trial) -> tuple:
    """The last round of a line search of ``_damped_newton``: the points
    s + t d, t = 2^-_SINGLE_STEPS .. 2^-(_HALVINGS - 1), of every start still
    searching (start: (direction, rate)), formed as one stack and handed to
    ``trial`` in one call with their Armijo bounds, longest step first
    across all starts; the trial's own domain test refuses the points
    outside.  Returns (Z, owners, t, states, merits): the rows handed over,
    the start and the step length of each, and what ``trial`` made of
    them."""
    tried = list(searching)
    j, rows = np.divmod(np.arange(len(_STACKED_STEPS) * len(tried)), len(tried))
    owners = np.take(tried, rows)
    rates = np.array([rate for _, rate in searching.values()])
    bounds = np.take(merits, owners) - _STACKED_ARMIJO[j] * rates[rows]
    Z = (np.array([S[i] for i in tried])[rows]
         + _STACKED_STEPS[j] * np.array([d for d, _ in searching.values()])[rows])
    made, zms = trial(Z, owners, bounds)
    return Z, owners, _STACKED_STEPS[j, 0], made, zms


def _newton_directions(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``_solve_newton`` on each row of a stack: one stacked solve, and the
    ridge fallback only for the rows that need it (a singular row fails the
    stacked solve, and then every row is solved alone)."""
    try:
        # b as a stack of columns like H, which numpy 1.x and 2 read alike
        D = np.linalg.solve(-H, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        D = np.full(g.shape, np.nan)
    if not np.isfinite(D).all():
        for r in np.flatnonzero(~np.isfinite(D).all(axis=1)).tolist():
            D[r] = _solve_newton(H[r], g[r])
    return D


def _solve_newton(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction from (-H) d = g with a ridge fallback: the ascent step
    of a concave objective, and the root step H d = -g for g = 0."""
    A = -H
    try:
        d = np.linalg.solve(A, g)
        if np.all(np.isfinite(d)):
            return d
    except np.linalg.LinAlgError:
        pass
    scale = float(np.max(np.abs(H))) + 1.0
    for ridge in (1e-12 * scale, 1e-8 * scale, 1e-4 * scale):
        try:
            d = np.linalg.solve(A + ridge * np.eye(len(g)), g)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(d)):
            return d
    return g.copy()


def _interior_converged(point: dual.DualPoint, gtol: float) -> bool:
    """Whether a polished point is a strictly interior stationary point of
    the bare dual: it clears the feasibility margin (``DualPoint.clears``)
    and its own bare gradient has norm <= gtol."""
    return point.clears(_FEAS_MARGIN * point.p.f_scale) and _gradient_norm(point) <= gtol


def _strictly_feasible(p: Problem, s: np.ndarray, margin: float) -> Optional[dual.GapMatrix]:
    """GapMatrix if s is strictly inside the certified region by the margin,
    else None: every domain slack exceeds it and G minus it has a Cholesky
    factor.  The GapMatrix is returned unread, so no eigendecomposition is
    made here."""
    if (dual.domain_slacks(p, s) <= margin).any():
        return None
    gm = dual.assemble_G(p, s)
    try:
        np.linalg.cholesky(gm.G - margin * np.eye(p.n))
    except np.linalg.LinAlgError:
        return None
    return gm


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
    EmptyInterior after the search budget.  A problem with no dual
    coordinate has nothing to move: G is its plain block, tested once."""
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
    if not p.dual_dim:
        best = dual.assemble_G(p, base).min_eig
        raise EmptyInterior(f"no dual coordinate, and G has min eigenvalue {best:.3e}", best)
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
    raise EmptyInterior("no strictly positive-definite dual point found "
                        f"(best min eigenvalue {best:.3e})", best)


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

    The barrier weight shrinks by ``barrier_shrink`` each outer step.
    After each step above _MU_FLOOR, a centred point that clears the
    feasibility margin and whose bare Newton step has
    ``DualPoint.newton_radius`` at most _DIKIN is handed to the
    barrier-free polish.  The solve ends at the first polished point that
    ``_interior_converged`` accepts; a refused one leaves the barrier's
    point as it was, and that point, while the barrier takes no step from
    it, is not handed over again.  Without a handover the barrier runs to
    _MU_FLOOR (or ``max_outer`` steps), and its own last point is polished
    if it clears the boundary (``DualPoint.clears(0.0)``), with no new
    factorization: one polish call serves both.  Interior
    convergence yields a stationary dual point paired with the
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
    polish_tol = min(gtol, 1e-12 * p.f_scale)

    iterations = 0
    mu = cfg.barrier_weight
    point = None  # each outer step starts from the factorized point the last one ended at
    refused = None  # the last point whose polish _interior_converged refused
    for outer in range(cfg.max_outer):
        [(s, point, its)] = _damped_newton([s], *_barrier(p, mu), tol=gtol,
                                           max_iter=cfg.max_inner, step_tol=cfg.step_tol,
                                           states=None if point is None else [point],
                                           centred=_CENTERING * mu)
        if point is None:
            raise EmptyInterior("ascent started at an infeasible point")
        iterations += its
        mu *= cfg.barrier_shrink
        last = mu < _MU_FLOOR or outer == cfg.max_outer - 1
        # the last point is polished wherever the polish can start; an earlier
        # one once Newton may finish from it, and not again where the barrier
        # took no step from a refused one
        if (point.clears(0.0) if last else point is not refused
                and point.newton_radius() <= _DIKIN
                and point.clears(_FEAS_MARGIN * p.f_scale)):
            [(t, state, its)] = _damped_newton([s], *_polish(p), tol=polish_tol,
                                               max_iter=cfg.max_inner, states=[point])
            if last or _interior_converged(state, gtol):
                s = t
                iterations += its
                break
            refused = point  # the barrier goes on from its own point
        elif last:
            break

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
                  perturb_rounds: int = 0, x_override: Optional[np.ndarray] = None) -> SolveReport:
    """The report of the dual point ``gm``, paired with x = [G(s)]^+ f or
    with ``x_override``."""
    p = gm.p
    messages = []
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
    extended precision and rounded once.  This brings x to within an ulp
    or two (of its largest entry) of the stationary point, but its last
    bits can still depend on the iterate the dual solve ended at.  The
    input x comes back if the step fails or does not lower the residual."""
    try:
        residual = model.primal_gradient(p, np.longdouble)  # the factors converted once
        r0 = residual(x)
        step = np.linalg.solve(triality.hessian_primal(p, x), r0.astype(float))
        x1 = (x.astype(np.longdouble) - step).astype(float)
        r1 = residual(x1)
    except (CanonDualError, np.linalg.LinAlgError):
        return x
    if np.all(np.isfinite(x1)) and float(r1 @ r1) < float(r0 @ r0):
        return x1
    return x


# Quadratic perturbation -------------------------------------------------


def _perturbed_problem(p: Problem, delta: float, anchor: np.ndarray) -> Problem:
    ridge = CanonicalTerm(kind=TermKind.PLAIN_QUADRATIC, factor=np.eye(p.n), alpha=delta)
    return Problem(n=p.n, terms=tuple(p.terms) + (ridge,), f=p.f + delta * anchor)


def _draw_anchor(p: Problem, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(p.n)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else np.ones(p.n) / math.sqrt(p.n)


def perturbed_solve(p: Problem, cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Solve a continuous problem through the shrinking-perturbation rounds.

    Tries the unperturbed dual first and returns immediately on interior
    certification (zero rounds).  Each round solves the dual of the problem
    perturbed by the current anchor; the anchor follows the recovered primal
    point, re-randomized (seeded) if a round stalls without certification.
    The returned report is evaluated against the original problem and keeps
    the ``perturbation`` status, since boundary instances carry no interior
    certificate.  Where no round runs (``perturb_delta0`` or
    ``max_perturb_rounds`` zero) or none solves its dual, the plain solve's
    report comes back, if it succeeded.  A sign problem is refused:
    ``integer.sign_problem_solve`` rounds its one dual point instead.
    """
    if p.is_sign_integer:
        raise DimensionMismatch("perturbation rounds require continuous variables")
    cfg = cfg or SolverConfig()
    try:
        plain = solve_dual(p, cfg)
    except (EmptyInterior, MaxIterations):
        plain = None
    if plain is not None and plain.status == "interior":
        return plain

    rng = np.random.default_rng(cfg.seed)
    anchor = _draw_anchor(p, rng)
    delta = cfg.perturb_delta0
    best = None  # (primal value, x, report)
    idle_redraws = 0
    budget = cfg.max_perturb_rounds if delta > 0.0 else 0  # a zero ridge perturbs nothing
    for rounds in range(1, budget + 1):
        pk = _perturbed_problem(p, delta, anchor)
        try:
            rep = solve_dual(pk, cfg)
        except (EmptyInterior, MaxIterations):
            anchor = _draw_anchor(p, rng)
            delta = max(delta * cfg.perturb_shrink, 1e-14)
            continue
        x_new = rep.x_bar
        value = model.eval_primal(p, x_new)
        improved = best is None or value < best[0] - 1e-12
        if improved:
            best = (value, x_new.copy(), rep)
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
        _, x_new, rep = best
        report = _perturbation_report(p, x_new, rep, rounds)
        report.messages = report.messages + ("perturbation rounds exhausted before the anchor settled",)
        return report
    if plain is not None:
        return plain
    raise MaxIterations("the plain dual solve failed, and no perturbation round solved its dual")


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
        return ExistenceResult(status="likely_empty", witness=None, min_eig=exc.best_min_eig)
    return ExistenceResult(status="interior_nonempty", witness=s, min_eig=gm.min_eig)


def dual_critical_points(p: Problem, cfg: Optional[SolverConfig] = None) -> list:
    """Multistart damped Newton on the dual gradient across the dual domain.

    Returns deduplicated stationary points as (sigma, dual value, membership)
    sorted by descending value then lexicographic sigma.  This searches the
    whole nonsingular dual domain, not only the certified region, so it sees
    the local pairs on the negative-definite side as well.  The maximizer of
    the certified region (``solve_dual``) joins the points when its solve
    ends interior.  RANDOM_STARTS random starts join the ladder's.
    """
    [(_, points)] = _critical_points([p], cfg or SolverConfig())
    return points


def _critical_points(problems: Sequence[Problem], cfg: SolverConfig) -> list:
    """(outcome, points) for each of ``problems``, which share their terms:
    the status of ``solve_dual`` on it, or why it raised (``empty_interior``,
    ``stalled``), and ``_merge_points`` of the solve's point, if interior,
    and of the points its starts of ``_root_search`` end at."""
    solved = []
    for q in problems:
        try:
            rep = solve_dual(q, cfg)
        except EmptyInterior:
            solved.append(("empty_interior", []))
        except MaxIterations:
            solved.append(("stalled", []))
        else:
            solved.append((rep.status, [rep.sigma_bar] if rep.status == "interior" else []))
    return [(outcome, _merge_points(q, certified + roots))
            for q, (outcome, certified), roots
            in zip(problems, solved, _root_search(problems, cfg))]


def _root_search(problems: Sequence[Problem], cfg: SolverConfig) -> list:
    """The multistart root search of ``_critical_points`` for each of
    ``problems``, which share their terms: the stationary points each
    problem's starts end at, one list per problem.

    G(s) does not depend on f, so the starts of several problems run as one
    lockstep stack, each row with its own f, its own tolerance and its own
    ``Problem``: as many problems, in order, as keep the points of its
    starts within _SEARCH_ELEMENTS numbers (``_row_size`` a start), and at
    least one.  Each start ends where it would alone, to the bit.  A
    problem with no dual coordinate has no stationary point to find.
    """
    roots = [[] for _ in problems]
    if not problems or not problems[0].dual_dim:
        return roots
    per_problem = len(_LADDER_UNITS) + RANDOM_STARTS
    group = max(1, _SEARCH_ELEMENTS // (_row_size(problems[0]) * per_problem))
    for first in range(0, len(problems), group):
        starts, owners, tols = [], [], []
        for k in range(first, min(first + group, len(problems))):
            q = problems[k]
            rng = np.random.default_rng(cfg.seed)
            drawn = _ladder_starts(q) + [_random_dual_start(q, rng)
                                         for _ in range(RANDOM_STARTS)]
            starts += drawn
            owners += [k] * len(drawn)
            tols += [max(cfg.grad_tol, 1e-11) * q.f_scale] * len(drawn)
        callbacks = _roots(problems[first], [problems[k] for k in owners])
        ends = _damped_newton(starts, *callbacks, tol=tols, max_iter=60)
        for (s, state, _), k, gtol in zip(ends, owners, tols):
            if state is not None and _gradient_norm(state) <= gtol:
                roots[k].append(s)
    return roots


def _merge_points(p: Problem, found: list) -> list:
    """The dual points ``found`` as (sigma, dual value, membership), sorted by
    descending value then lexicographic sigma, without near-duplicates."""
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


_LADDER_UNITS = (0.05, 0.2, 0.5, 1.0, 2.0, 4.0)


def _ladder_starts(p: Problem) -> list:
    """Deterministic start points marching away from each domain boundary.

    Guarantees basin coverage for low-dimensional duals where pure random
    starts can miss a stationary point between the boundary and zero.
    """
    q = len(p.dual_terms)
    xlogx = np.array([p.terms[i].kind is TermKind.XLOGX for i in p.dual_terms], dtype=bool)
    starts = []
    for u in _LADDER_UNITS:
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
             cfg: Optional[SolverConfig] = None, threads: int = 1) -> FcSweepResult:
    """Uniqueness-versus-input-magnitude sweep.

    For each magnitude the input is magnitude * direction and the dual
    stationary points are collected by multistart; a magnitude is flagged
    unique when exactly one cluster survives and no boundary degeneracy was
    hit.  The reported threshold is the smallest grid magnitude from which
    every larger grid entry is unique, whatever the grid's order; the rows
    keep that order.  Each magnitude's points are those of
    ``dual_critical_points`` of that magnitude alone, to the bit: both come
    from ``_critical_points``, which runs the root searches of all the
    magnitudes as one lockstep stack (``_root_search``, which caps its
    size), since G(s) does not depend on the input.  The sweep runs on the
    calling thread; ``threads`` must be 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    cfg = cfg or SolverConfig()
    direction = np.asarray(direction, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    direction = direction / norm
    grid = [float(m) for m in grid]
    problems = [Problem(n=p_template.n, terms=p_template.terms, f=m * direction,
                        variables=p_template.variables) for m in grid]
    rows = []
    for m, (outcome, points) in zip(grid, _critical_points(problems, cfg)):
        boundary = outcome != "interior"
        clusters = []
        for s, _, _ in points:
            if all(np.linalg.norm(s - c) > CLUSTER_RADIUS for c in clusters):
                clusters.append(s)
        unique = (len(clusters) == 1) and not boundary
        rows.append(FcRow(magnitude=m, clusters=[list(map(float, c)) for c in clusters],
                          n_clusters=len(clusters), boundary=boundary, unique=unique,
                          outcome=outcome))
    threshold = None
    for row in sorted(rows, key=lambda row: row.magnitude, reverse=True):
        if not row.unique:
            break
        threshold = row.magnitude
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
