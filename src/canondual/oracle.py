"""Independent ground-truth generators used as arbiters in the test suite.

Nothing here goes through the dual machinery: sign problems are enumerated
exhaustively, a block of objective values per matrix product, continuous
problems are scanned on grids or random multistarts with optional
first-order polishing, derivatives come from central differences, and the
conjugate formulas are re-derived from a dense grid supremum.  Budget guards
keep everything under a desk-scale time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import model
from .errors import TooLarge
from .integer import QipInstance
from .model import CanonicalTerm, Problem, TermKind

ENUM_MAX_N = 24
ENUM_BLOCK = 1 << 20  # objective values held at once by enumerate_signs
GRID_MAX_N = 6
GRID_MAX_SAMPLES = 1 << 20  # grid points grid_multistart evaluates at most
MULTISTART_SAMPLES = 256  # random starts of grid_multistart above GRID_MAX_N
LEGENDRE_SPAN = 6.0  # legendre_check scans xi +- LEGENDRE_SPAN (1 + |xi|)


@dataclass
class OracleResult:
    best_x: np.ndarray
    best_value: float
    samples: int
    method: str


def enumerate_signs(inst: QipInstance) -> OracleResult:
    """Exact optimum over all 2^n sign assignments.

    Deterministic lexicographic tie-break with -1 ordered before +1
    (coordinate 0 most significant); guarded at n <= 24.  The coordinates
    split into a high half H and a low half L, so that every objective value
    is one entry of

        V = (X_H Q_HL) X_L' + c_H 1' + 1 c_L',

    with X_H, X_L the sign rows of each half and c_H, c_L their own
    objectives.  V is formed a block of at most ENUM_BLOCK entries at a time.
    Entries within 1e-9 (1 + |min|) of the running minimum are recomputed by
    0.5 x'(Qx) - f'x, and the first exact minimum wins.
    """
    if inst.n > ENUM_MAX_N:
        raise TooLarge(f"enumeration over 2^{inst.n} assignments exceeds the budget")
    Q, f = inst.Q, inst.f
    h = inst.n // 2
    X_H, X_L = _sign_rows(h), _sign_rows(inst.n - h)
    c_H = _sign_objective(X_H, Q[:h, :h], f[:h])
    c_L = _sign_objective(X_L, Q[h:, h:], f[h:])
    P = X_H @ Q[:h, h:]
    rows = max(1, ENUM_BLOCK // len(X_L))
    chunk = ENUM_BLOCK // max(1, inst.n)  # near-tie rows recomputed at once
    best_val, best_x = math.inf, None
    for r0 in range(0, len(X_H), rows):
        V = P[r0:r0 + rows] @ X_L.T
        V += c_H[r0:r0 + rows, None]
        V += c_L[None, :]
        lo = min(best_val, float(V.min()))
        i, j = np.nonzero(V <= lo + 1e-9 * (1.0 + abs(lo)))
        for c0 in range(0, len(i), chunk):
            X = np.hstack([X_H[r0 + i[c0:c0 + chunk]], X_L[j[c0:c0 + chunk]]])
            exact = _sign_objective(X, Q, f)
            k = int(np.argmin(exact))
            if exact[k] < best_val:
                best_val, best_x = float(exact[k]), X[k].copy()
    return OracleResult(
        best_x=best_x,
        best_value=best_val,
        samples=1 << inst.n,
        method="enumeration",
    )


def _sign_rows(m: int) -> np.ndarray:
    """All 2^m sign vectors of length m in lexicographic order, -1 first."""
    ks = np.arange(1 << m)[:, None]
    return ((ks >> np.arange(m - 1, -1, -1)) & 1) * 2.0 - 1.0


def _sign_objective(X: np.ndarray, Q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """0.5 x'(Qx) - f'x for every row x of X."""
    return 0.5 * np.einsum("ij,ij->i", X, X @ Q) - X @ f


def grid_multistart(p: Problem, box, grid_points: Optional[int] = None,
                    local_refine: bool = True, seed: int = 0) -> OracleResult:
    """Best primal value over a full grid (n <= 6) or random multistart.

    The box is either a single (lo, hi) pair applied to every coordinate or a
    sequence of per-coordinate pairs.  With local_refine the best candidates
    are polished by backtracking gradient descent, so the reported value is
    an upper bound on the true minimum that tightens with the sample budget.
    The default grid has 21 points per axis, or as many fewer as it takes to
    fit GRID_MAX_SAMPLES (16 for n = 5, 10 for n = 6); a grid_points grid of
    more than GRID_MAX_SAMPLES points raises TooLarge before anything is
    allocated.  Above GRID_MAX_N variables the search draws
    MULTISTART_SAMPLES random starts and has no grid, so an explicit
    grid_points raises ValueError there.
    """
    if grid_points is not None and p.n > GRID_MAX_N:
        raise ValueError(f"grid_points applies to the grid of at most {GRID_MAX_N} variables; "
                         f"{p.n} variables are searched by {MULTISTART_SAMPLES} random starts")
    if grid_points is None:
        grid_points = 21
        while grid_points ** p.n > GRID_MAX_SAMPLES:
            grid_points -= 1
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    lo, hi = _box_arrays(p.n, box)
    if p.n <= GRID_MAX_N:
        if int(grid_points) ** p.n > GRID_MAX_SAMPLES:
            raise TooLarge(f"a grid of {grid_points}^{p.n} points exceeds the "
                           f"{GRID_MAX_SAMPLES}-point budget")
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(p.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        method = "grid"
    else:
        rng = np.random.default_rng(seed)
        X = lo + (hi - lo) * rng.random((MULTISTART_SAMPLES, p.n))
        method = "multistart"
    vals = model.eval_primal_batch(p, X)
    finite = np.isfinite(vals)
    vals = np.where(finite, vals, np.inf)
    order = np.argsort(vals, kind="stable")
    best_x = X[order[0]].copy()
    best_val = float(vals[order[0]])
    samples = X.shape[0]
    if local_refine:
        for idx in order[: min(8, len(order))]:
            x_ref, v_ref = _descent_polish(p, X[idx], lo, hi)
            if v_ref < best_val:
                best_val, best_x = v_ref, x_ref
    return OracleResult(best_x=best_x, best_value=best_val, samples=samples, method=method)


def _box_arrays(n: int, box) -> tuple:
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        lo = np.full(n, box[0])
        hi = np.full(n, box[1])
    else:
        if box.shape != (n, 2):
            raise ValueError(f"box must be (lo, hi) or shape ({n}, 2)")
        lo, hi = box[:, 0].copy(), box[:, 1].copy()
    if np.any(hi <= lo):
        raise ValueError("box upper bounds must exceed lower bounds")
    return lo, hi


def _descent_polish(p: Problem, x0, lo, hi, max_iter: int = 200) -> tuple:
    """Projected gradient descent onto the box, Armijo condition c = 1e-4.

    The search region is the box itself: unconstrained descent could escape
    to the unbounded valleys of an indefinite objective, which would no
    longer bound the boxed minimum.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    try:
        val = model.eval_primal(p, x)
    except Exception:
        return x, math.inf
    gradient = model.primal_gradient(p)
    for _ in range(max_iter):
        try:
            g = gradient(x)
        except Exception:
            break
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-12 * (1.0 + abs(val)):
            break
        t = 1.0 / max(1.0, gnorm)
        moved = False
        for _ in range(40):
            trial = np.clip(x - t * g, lo, hi)
            gap = float(g @ (x - trial))
            if gap <= 0.0:
                break
            try:
                tval = model.eval_primal(p, trial)
            except Exception:
                tval = math.inf
            if tval <= val - 1e-4 * gap:
                x, val = trial, tval
                moved = True
                break
            t *= 0.5
        if not moved:
            break
    return x, val


def fd_gradient(fun: Callable[[np.ndarray], float], x, h: float = 1e-6) -> np.ndarray:
    """Central differences, componentwise error O(h^2)."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        hi = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        g[i] = (fun(xp) - fun(xm)) / (2.0 * hi)
    return g


def fd_hessian(fun: Callable[[np.ndarray], float], x, h: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    H = np.empty((n, n))
    for i in range(n):
        hi = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        gp = fd_gradient(fun, xp, h)
        gm = fd_gradient(fun, xm, h)
        H[:, i] = (gp - gm) / (2.0 * hi)
    return 0.5 * (H + H.T)


@dataclass
class LegendreReport:
    max_pairing_residual: float
    max_grid_gap: float
    samples: int


def legendre_check(t: CanonicalTerm, xi_samples: Sequence[float],
                   grid_points: int = 20001) -> LegendreReport:
    """Re-derive the conjugate of one term from first principles.

    For each sample xi the duality map gives sigma = Phi'(xi) and the pairing
    identity Phi(xi) + Phi*(sigma) - xi*sigma should vanish.  Independently,
    Phi*(sigma) is recomputed as the supremum of xi*sigma - Phi(xi) over a
    dense xi grid (coarse scan plus a refined window around the argmax) and
    compared against the closed form.
    """
    max_res = 0.0
    max_gap = 0.0
    for xi in xi_samples:
        xi = float(xi)
        sigma = t.phi_grad(xi)
        res = abs(t.phi(xi) + model.conj_value(t, sigma) - xi * sigma)
        max_res = max(max_res, res)

        span = LEGENDRE_SPAN * (1.0 + abs(xi))
        lo = max(1e-12, xi - span) if t.kind is TermKind.XLOGX else xi - span
        grid = np.linspace(lo, xi + span, grid_points)
        vals = grid * sigma - t.phi_batch(grid)
        k = int(np.argmax(vals))
        window_lo = grid[max(0, k - 2)]
        window_hi = grid[min(len(grid) - 1, k + 2)]
        fine = np.linspace(window_lo, window_hi, grid_points)
        sup = float(np.max(fine * sigma - t.phi_batch(fine)))
        max_gap = max(max_gap, abs(sup - model.conj_value(t, sigma)))
    return LegendreReport(max_pairing_residual=max_res, max_grid_gap=max_gap,
                          samples=len(list(xi_samples)))
