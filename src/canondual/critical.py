"""The multistart search for the critical points of the dual.

The certificate comes from ``solver.solve_dual``, the dual maximized where
G(s) is positive semidefinite.  The triality diagnostics,
``solver.dual_critical_points`` and ``solver.fc_sweep``, also want every
stationary point of the dual on its whole nonsingular domain, where G may
be indefinite.  This module finds them, and ``solver`` loads it on their
first call only, so a solve does not compile it.

``critical_points`` runs the certified solve of each problem and the root
search of all of them, then merges each problem's points.  The root
search (``_root_search``) passes the starts of all its problems, a ladder
away from each domain edge and RANDOM_STARTS seeded random draws each, to
``_lockstep`` as one stack.  G(s) does not depend on f, so each row has
its own f and tolerance.  ``_lockstep`` is the iteration of
``solver._damped_newton`` on the gradient-norm merit, with its state in
arrays over the running starts and every test of a start a mask, so each
start ends where the one-start loop ends it, to the bit; it shares the
step table and ``solver._solve_newton`` with that loop, which serves the
single start of every solve.  Its trials (``_lu_trials``) are LU points
made a stack at a time (``factor_stack``) within a fixed count of
numbers, and its states are the rows of ``PointStack``s: arrays that the
merits and the Hessians A'G^-1 A of all the starts (``dual.bare_hessians``)
read directly, and no point object is built.  ``_merge_points`` evaluates
the points a search found as stacks (``stack_values``, one stacked
``eigh``), each row to the bit of ``dual.assemble_G`` at the point alone.
What it shares with ``solver`` is read as ``solver`` attributes at each
call.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from . import dual, linalg, solver
from .errors import CanonDualError, EmptyInterior, MaxIterations
from .model import Problem, TermKind

# A stacked call of the root search holds at most this many numbers in each
# of its stacked arrays (see _row_size): 0.5 MB of doubles, which a whole
# deep round of the 1x1 and 2x2 wells fits in.  One lockstep stack of it
# holds the points of at most _SEARCH_ELEMENTS numbers' worth of starts.
_STACK_ELEMENTS = 2**16
_SEARCH_ELEMENTS = 2**22
# the root search's random starts per problem, beside the ladder's
RANDOM_STARTS = 12


class PointStack:
    """LU points at a stack of dual points, evaluated in one pass; build it
    with ``factor_stack``.  Row j is the point ``Z[j]``, with its ``G``,
    coordinate ``images`` and ``bare_grads``: the gradients are all that a
    line-search trial's merit reads, and the rest is what the Hessians
    (``dual.bare_hessians``) read.  ``stack[rows]``, for an index array, is
    the stack of those rows, and ``stack.join(others)`` the stack of its
    rows followed by theirs."""

    _FIELDS = ("Z", "G", "images", "bare_grads")

    def __init__(self, Z: np.ndarray, G: np.ndarray, images: np.ndarray, grads: np.ndarray):
        self.Z, self.G, self.images, self.bare_grads = Z, G, images, grads

    def __getitem__(self, rows: np.ndarray) -> "PointStack":
        return PointStack(*(getattr(self, name)[rows] for name in self._FIELDS))

    def join(self, others: Sequence["PointStack"]) -> "PointStack":
        if not others:
            return self
        stacks = (self, *others)
        return PointStack(*(np.concatenate([getattr(stack, name) for stack in stacks])
                            for name in self._FIELDS))


def factor_stack(p: Problem, Z, F) -> tuple:
    """(kept, stack): ``dual.factor_point(q, z_j, cholesky=False)`` at every
    row z_j of Z, in one pass, for q the problem on p's terms with input
    ``F[j]``, where ``kept`` lists in order the rows where that is not None
    and ``stack`` holds their points.  One ``dual.screen`` of every row,
    then, for the rows inside, the stacked operator, one ``np.linalg.solve``
    of G x = F[j] over the stack (singular rows, which make it fail, are
    then refused one by one) and the bare gradients: G(s) does not depend
    on f, so one stack may hold the points of several inputs."""
    Z = np.asarray(Z, dtype=float)
    kept = np.flatnonzero(~dual.screen(p, Z, cholesky=False)[0])
    Z = Z[kept]
    G = dual.operator(p, Z)
    # b as a stack of columns like G: numpy 1.x reads an (n, 1) b as a stack
    # of vectors, numpy 2 as one column
    F = np.asarray(F, dtype=float)[kept][..., None]
    try:
        X = np.linalg.solve(G, F)[..., 0]
    except np.linalg.LinAlgError:
        X = np.full((len(kept), p.n), np.nan)  # a singular row stays NaN: refused
        for r, Gr in enumerate(G):
            try:
                X[r] = np.linalg.solve(Gr, F[r])[:, 0]
            except np.linalg.LinAlgError:
                pass
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        kept, Z, G, X = kept[finite], Z[finite], G[finite], X[finite]
    images = dual.coordinate_images(p, X)
    return kept, PointStack(Z, G, images, dual.bare_grads(p, Z, X, images))


def stack_values(p: Problem, S: np.ndarray) -> list:
    """(row, value, membership) at each row s of a stack of dual points S
    where ``dual.assemble_G(p, s).value`` is defined, with the arithmetic
    of that ``GapMatrix`` alone, to the bit: one stacked ``dual.operator``
    and ``linalg.eigh``, then x = [G]^+ f, its range check, the value and
    the membership.  A row drops out alone where the GapMatrix raises: G
    not finite, f outside the range of G, or a conjugate undefined."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = dual.operator(p, S)
    rows = np.flatnonzero(np.isfinite(G).all(axis=(1, 2)))
    S, G = S[rows], G[rows]
    w, v = linalg.eigh(G)
    x = linalg.apply_pinv((w, v), p.f)
    r = np.matmul(G, x[..., None])[..., 0] - p.f
    half = -0.5 * linalg.dots(x, p.f)
    flat = G.reshape(len(G), p.n * p.n)
    tol = 1e-8 * (1.0 + np.sqrt(linalg.dots(flat, flat)))  # dual.boundary_tol
    least = np.minimum(w[:, 0], S[:, len(p.dual_terms):].min(axis=1, initial=np.inf))
    out = []
    for k in np.flatnonzero(~(np.sqrt(linalg.dots(r, r)) > dual.RANGE_TOL * p.f_scale)).tolist():
        try:
            value = float(half[k] - dual.conjugate_total(p, S[k]))
        except CanonDualError:
            continue
        member = (dual.Membership.INTERIOR if least[k] > tol[k] else dual.Membership.BOUNDARY
                  if least[k] >= -tol[k] else dual.Membership.OUTSIDE)
        out.append((int(rows[k]), value, member))
    return out


def _row_size(p: Problem) -> int:
    """The numbers n * max(n, R) one point of the root search on p's terms
    takes in a stacked array: its G, and its coordinate images while they
    are formed, for R the rows of ``Problem.coordinate_rows.Bt``."""
    return p.n * max(p.n, p.coordinate_rows.Bt.shape[1])


def _stack_rows(p: Problem) -> int:
    """The most rows of one stacked call of the root search on p's terms
    (``factor_stack``, ``dual.bare_hessians``)."""
    return max(1, _STACK_ELEMENTS // _row_size(p))


def _roots(p: Problem, F) -> tuple:
    """``_lockstep`` callbacks for grad = 0 on the bare dual, with the
    gradient norm as merit, at every point with nonnegative domain slacks
    and nonsingular G, for starts on p's terms each with its own input, its
    row of ``F``: the states are the rows of ``PointStack``s, made a stack
    of trials at a time by ``_lu_trials``, and the Hessians of all the
    starts come in one pass of ``dual.bare_hessians``."""
    cap = _stack_rows(p)
    return (partial(_lu_trials, p, np.asarray(F, dtype=float), cap),
            partial(_lu_derivatives, p, cap))


# The first _SINGLE_STEPS trials of a line search, t = 1 .. 1/8, are handed
# to the trial one round each: most searches stop among them.  The others,
# t = 2^-4 .. 2^-39, are formed as one stack and handed over in one round.
_SINGLE_STEPS = 4


def _lockstep(S: Sequence[np.ndarray], trial, derivatives, tol, max_iter: int) -> list:
    """``solver._damped_newton`` on the gradient-norm merit, for a stack of
    starts S run in lockstep: the points, merits, tolerances and states of
    the starts still running are arrays over them, and every test of a
    start is a mask, with the arithmetic of the start alone
    (``linalg.dots``), so each start ends where it would alone, to the bit.

    ``trial(Z, owners, bounds)`` makes the rows of Z, points of the starts
    ``owners`` (a start's rows in order of decreasing t), and returns
    (rows, merits, made): the rows it accepts, in order, each start's first
    row with a finite merit within its bound; every row's merit (inf
    outside the domain, which its own test refuses, and where not made: it
    may leave a start's rows past its accepted one unmade); and the states
    of the accepted rows as a ``PointStack``.  Where starts accept in
    different rounds, their stacks are joined.  The first call, at the
    starts, bounds each by inf.  ``derivatives(states)`` is the stacked
    (g, H) of a stack of states.
    Each iteration takes the derivatives and the Newton directions of every
    start still running in one call each: d solves (-H) d = g
    (``_newton_directions``).  The merit m, a gradient norm above its
    tolerance, is the slope, so a step t = 2^-k, k < _HALVINGS, has the
    bound m - _ARMIJO * t * m, and each start takes its longest step within
    it: the line search hands the trial one round for each of the first
    _SINGLE_STEPS step lengths, then one with every other step of every
    start left, longest first across the starts.
    A start stops at |g| <= tol (a number, or one per start), when no step
    is accepted, or after ``max_iter`` steps.  Returns one (s, merit, steps)
    per start: the merit of its end, or None where the start is outside the
    domain.
    """
    S = np.array(S, dtype=float)
    ends, steps = [None] * len(S), [0] * len(S)
    tols = np.empty(len(S))
    tols[:] = tol
    live, merits, states = trial(S.copy(), np.arange(len(S)), np.full(len(S), math.inf))
    s, merits, tols = S[live], merits[live], tols[live]

    def stop(rows, n):  # the starts at these rows stop after n steps
        for r in rows.tolist():
            i = live[r]
            S[i], ends[i], steps[i] = s[r], merits[r], n

    for it in range(max_iter):
        if not len(live):
            break
        g, H = derivatives(states)
        going = np.sqrt(linalg.dots(g, g)) > tols
        if np.count_nonzero(going) < len(live):
            stop((~going).nonzero()[0], it)
            rows = going.nonzero()[0]
            live, s, merits, tols, states = (live[rows], s[rows], merits[rows], tols[rows],
                                             states[rows])
            if not len(live):
                break
            g, H = g[rows], H[rows]
        D = _newton_directions(H, g)
        left, got = np.arange(len(live)), []  # the rows still searching, the accepted
        for k in range(_SINGLE_STEPS + 1):
            if k < _SINGLE_STEPS:
                at, j = left, k
            else:  # every other step of every row left, longest first across them
                j, at = np.divmod(np.arange((solver._HALVINGS - k) * len(left)), len(left))
                at, j = left[at], j + k
            Z, m = s[at] + solver._STEPS[j, None] * D[at], merits[at]
            rows, zms, made = trial(Z, live[at], m - solver._ARMIJO_STEPS[j] * m)
            if len(rows):
                got.append((at[rows], Z[rows], zms[rows], made))
                searching = np.ones(len(live), dtype=bool)
                searching[at[rows]] = False
                left = left[searching[left]]
                if not len(left):
                    break
        if len(left):
            stop(left, it + 1)  # no step accepted
        if not got:
            live = live[:0]
            break
        at, s, merits, states = zip(*got)
        at, s, merits = (a[0] if len(a) == 1 else np.concatenate(a) for a in (at, s, merits))
        live, tols = live[at], tols[at]
        states = states[0].join(states[1:])
    if len(live):
        stop(np.arange(len(live)), max_iter)
    return list(zip(S, ends, steps))


def _newton_directions(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``solver._solve_newton`` on each row of a stack: one stacked solve,
    and the ridge fallback only for the rows that need it (a singular row
    fails the stacked solve, and then every row is solved alone)."""
    try:
        # b as a stack of columns like H, which numpy 1.x and 2 read alike
        D = np.linalg.solve(-H, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        D = np.full(g.shape, np.nan)
    if not np.isfinite(D).all():
        for r in np.flatnonzero(~np.isfinite(D).all(axis=1)).tolist():
            D[r] = solver._solve_newton(H[r], g[r])
    return D


def _lu_trials(p: Problem, F: np.ndarray, cap: int, Z, owners, bounds) -> tuple:
    """The root search's trial: the LU points of ``factor_stack``, each row
    with the input of its owner (its row of ``F``), and their gradient-norm
    merits (``_gradient_norms``).  The rows are made in order, in calls of
    at most ``cap`` rows (``_stack_rows``), and once a start has accepted a
    row its later rows are dropped: with the rows of a deep round longest
    step first across all starts, few are made past a start's accepted
    one, and a 1x1 or 2x2 G takes the whole round in one call.  Only the
    accepted rows outlive their call, in the arrays of one ``PointStack``."""
    Z, owners, bounds = np.asarray(Z, dtype=float), np.asarray(owners), np.asarray(bounds)
    merits = np.full(len(Z), math.inf)
    first = np.full(len(F), len(Z))  # each start's accepted row; len(Z) before it has one
    rows, parts = [], []
    waiting = np.arange(len(Z))
    while waiting.size:
        take, waiting = waiting[:cap], waiting[cap:]
        kept, stack = factor_stack(p, Z[take], F[owners[take]])
        made = take[kept]  # the rows of Z in the stack, in its order
        m = merits[made] = _gradient_norms(stack.bare_grads)
        passed = np.flatnonzero(np.isfinite(m) & (m <= bounds[made]))  # places in the stack
        # a start's first row to pass, its longest step, is its accepted one
        np.minimum.at(first, owners[made[passed]], made[passed])
        chosen = passed[first[owners[made[passed]]] == made[passed]]
        rows.append(made[chosen])
        parts.append(stack[chosen])
        waiting = waiting[first[owners[waiting]] == len(Z)]
    return np.concatenate(rows), merits, parts[0].join(parts[1:])


def _gradient_norms(grads: np.ndarray) -> np.ndarray:
    """The norm of each row of a stack of gradients, with the arithmetic of
    np.linalg.norm on the row alone (``linalg.dots``).  Far out in the
    domain a norm can overflow: it is then inf, which the line search
    refuses, so the overflow is not warned about."""
    with np.errstate(over="ignore"):
        return np.sqrt(linalg.dots(grads, grads))


def _lu_derivatives(p: Problem, cap: int, stack: PointStack) -> tuple:
    """``DualPoint.barrier_derivs(0.0)`` at the rows of a ``PointStack``:
    their bare gradients, and their Hessians by ``dual.bare_hessians``, at
    most ``cap`` points (``_stack_rows``) to a call."""
    s, G, A = stack.Z, stack.G, stack.images
    H = np.concatenate([dual.bare_hessians(p, s[i:i + cap], G[i:i + cap], A[i:i + cap])
                        for i in range(0, len(s), cap)])
    return stack.bare_grads, 0.5 * (H + H.swapaxes(1, 2))


def critical_points(problems: Sequence[Problem], cfg: solver.SolverConfig) -> list:
    """(outcome, points) for each of ``problems``, which share their terms:
    the status of ``solver.solve_dual`` on it, or why it raised
    (``empty_interior``, ``stalled``), and ``_merge_points`` of the solve's
    point, if interior, and of the points its starts of ``_root_search``
    end at."""
    solved = []
    for q in problems:
        try:
            rep = solver.solve_dual(q, cfg)
        except EmptyInterior:
            solved.append(("empty_interior", []))
        except MaxIterations:
            solved.append(("stalled", []))
        else:
            solved.append((rep.status, [rep.sigma_bar] if rep.status == "interior" else []))
    return [(outcome, _merge_points(q, certified + roots))
            for q, (outcome, certified), roots
            in zip(problems, solved, _root_search(problems, cfg))]


def _root_search(problems: Sequence[Problem], cfg: solver.SolverConfig) -> list:
    """The multistart root search of ``critical_points`` for each of
    ``problems``, which share their terms: the stationary points each
    problem's starts end at, one list per problem.

    G(s) does not depend on f, so the starts of several problems run as one
    lockstep stack, each row with its own f and its own tolerance: as many
    problems, in order, as keep the points of their starts within
    _SEARCH_ELEMENTS numbers (``_row_size`` a start), and at least one.
    Each start ends where it would alone, to the bit, and is a root where
    the merit of its end is within its tolerance.  A problem with no dual
    coordinate has no stationary point to find.
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
        F = np.array([problems[k].f for k in owners])
        ends = _lockstep(starts, *_roots(problems[first], F), tol=tols, max_iter=60)
        for (s, merit, _), k, gtol in zip(ends, owners, tols):
            if merit is not None and merit <= gtol:
                roots[k].append(s)
    return roots


def _merge_points(p: Problem, found: list) -> list:
    """The dual points ``found`` as (sigma, dual value, membership), sorted by
    descending value then lexicographic sigma, without near-duplicates: the
    values and memberships come from stacks of at most ``_stack_rows``
    points (``stack_values``)."""
    cap = _stack_rows(p)
    merged = sorted(((found[i + k], val, member) for i in range(0, len(found), cap)
                     for k, val, member in stack_values(p, np.array(found[i:i + cap]))),
                    key=lambda item: (-item[1], tuple(item[0])))
    out = []
    for s, val, member in merged:
        if all(_norm(s - prev) > 1e-7 * (1.0 + _norm(s)) for prev, _, _ in out):
            out.append((s, val, member))
    return out


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a vector, to the bit: the square root of one dot
    product, without the argument handling of np.linalg.norm."""
    return math.sqrt(v.dot(v))


_LADDER_UNITS = (0.05, 0.2, 0.5, 1.0, 2.0, 4.0)


def _ladder_starts(p: Problem) -> list:
    """Deterministic start points marching away from each domain boundary.

    Guarantees basin coverage for low-dimensional duals where pure random
    starts can miss a stationary point between the boundary and zero.
    """
    q = len(p.dual_terms)
    xlogx = np.array([p.terms[i].kind is TermKind.XLOGX for i in p.dual_terms], dtype=bool)
    units = np.array(_LADDER_UNITS)[:, None]
    starts = np.repeat(units, p.dual_dim, axis=1)
    starts[:, :q] = solver._term_starts(p, np.where(xlogx, units - 1.0, units))
    return list(starts)


_RANDOM_UNITS = {
    TermKind.QUARTIC: lambda rng: rng.uniform(0.02, 3.0),
    TermKind.EXPONENTIAL: lambda rng: rng.uniform(0.05, 4.0),
    TermKind.XLOGX: lambda rng: rng.normal(0.0, 2.0),
}


def _random_dual_start(p: Problem, rng: np.random.Generator) -> np.ndarray:
    s = np.empty(p.dual_dim)
    q = len(p.dual_terms)
    s[:q] = solver._term_starts(p, [_RANDOM_UNITS[p.terms[i].kind](rng) for i in p.dual_terms])
    s[q:] = rng.uniform(0.05, 3.0, size=p.dual_dim - q)
    return s
