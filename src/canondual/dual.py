"""Total complementary function, dual objective, and primal recovery.

A dual point stacks one coordinate per non-plain term followed, for
sign-integer problems, by one relaxation multiplier per variable:

    s = (varsigma_1, ..., varsigma_q, sigma_1, ..., sigma_n).

The operator assembled at s is

    G(s) = sum_i alpha_i Q_i  +  sum_{dual terms} varsigma_s Q_s  +  2 diag(sigma),

the total complementary function is

    Xi(x, s) = 0.5 x'G(s)x - sum_s Phi*_s(varsigma_s) - x'f - e'sigma,

and the dual objective eliminates x through the stationarity G(s)x = f:

    Pi_d(s) = -0.5 f'[G(s)]^+ f - sum_s Phi*_s(varsigma_s) - e'sigma.

With the exact conjugates of :mod:`canondual.model`, no additive constant is
needed anywhere: Xi(x, sigma(x)) reproduces the primal objective identically,
and matched critical pairs satisfy Pi(x) = Xi(x, s) = Pi_d(s) to rounding.

Every coordinate, a term's varsigma or a sign multiplier, has one row in
the table ``Problem.coordinate_rows``: it enters G the same way,
G(s) = plain_block + sum_c s_c w_c B_c'B_c, so one formula gives each
derivative for all of them, and its domain is one bound s/alpha >= beta
(none for xlogx), whose slacks ``domain_slacks`` returns as one array.
``DualPoint``, built by ``factor_point``, is a point factorized once that
carries x = G^-1 f, the closed-form derivatives of Pi_d and log det G, and
the whole interior-point barrier Pi_d + mu log det G + mu sum log slack:
its value (``barrier``) and derivatives (``barrier_derivs``) at any mu,
and the length of the bare Newton step in its local norm
(``newton_radius``).
``bare_grads``, the one formula for the dual gradient, gives it at a point
and at a stack of points alike, and ``bare_hessians`` gives the LU
Hessians of a stack of points in one stacked solve, each row with the
arithmetic of the point alone: the multistart root search of ``critical``
keeps its stacked points as these arrays and builds no ``DualPoint``.
``GapMatrix``, built by
``assemble_G``, is the eigen-side twin of ``DualPoint``: G(s) and its
eigendecomposition, which give once each x = [G(s)]^+ f, Pi_d, the
reference gradient (``bare_grads`` at that x) and the membership of the
certified region.  A dual point from outside is checked once, by
``assemble_G``; the Newton loops pass ``factor_point``, ``screen`` and
``operator`` their own float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg, model
from .errors import DimensionMismatch, InvalidMatrix, RangeViolation, SingularG
from .linalg import EigenDecomp
from .model import Problem

RANGE_TOL = 1e-8


def boundary_tol(G: np.ndarray) -> float:
    """Scale-invariant eigenvalue dead zone for boundary detection."""
    return 1e-8 * (1.0 + float(np.linalg.norm(G, "fro")))


class cached_property:
    """functools.cached_property without the lock that Python 3.11 takes
    at every first read: the value is computed once and kept in the
    instance's __dict__, which shadows this descriptor."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class GapMatrix:
    """G(s) at a checked dual point; build it with ``assemble_G``.  The
    eigendecomposition, [G(s)]^+ f (``pinv_f``), the range-checked ``x``,
    the dual ``value``, ``grad`` and ``membership`` are computed on first use.
    """

    def __init__(self, p: Problem, s: np.ndarray, G: np.ndarray):
        self.p, self.s, self.G = p, s, G

    @cached_property
    def decomp(self) -> EigenDecomp:
        return linalg.eigh(self.G)

    @property
    def min_eig(self) -> float:
        return float(self.decomp.eigvals[0])

    @property
    def tol(self) -> float:
        return boundary_tol(self.G)

    def is_singular(self) -> bool:
        return bool(np.min(np.abs(self.decomp.eigvals)) <= self.tol)

    @cached_property
    def pinv_f(self) -> np.ndarray:
        return linalg.apply_pinv(self.decomp, self.p.f)

    @cached_property
    def x(self) -> np.ndarray:
        """[G(s)]^+ f; raises RangeViolation when f is not in the range of G."""
        residual = float(np.linalg.norm(self.G @ self.pinv_f - self.p.f))
        if residual > RANGE_TOL * self.p.f_scale:
            raise RangeViolation(f"input not in range of G (residual {residual:.3e}); dual "
                                 "point outside the admissible dual set", residual=residual)
        return self.pinv_f

    @cached_property
    def value(self) -> float:
        """Pi_d(s) = -0.5 f'x - conjugate total."""
        return -0.5 * float(self.p.f @ self.x) - conjugate_total(self.p, self.s)

    @cached_property
    def grad(self) -> np.ndarray:
        """Gradient of Pi_d, ``bare_grads`` at x = G^-1 f; raises SingularG
        where G is singular."""
        if self.is_singular():
            raise SingularG("dual gradient undefined where G is singular")
        x = self.pinv_f
        return bare_grads(self.p, self.s, x, coordinate_images(self.p, x))

    @cached_property
    def membership(self) -> Membership:
        """interior: G(s) positive definite and every sigma positive; boundary:
        G(s) semidefinite and singular, or a sigma at zero; else outside."""
        tol = self.tol
        sigma = self.s[len(self.p.dual_terms):]
        sigma_min = float(np.min(sigma)) if sigma.size else np.inf
        if self.min_eig > tol and sigma_min > tol:
            return Membership.INTERIOR
        if self.min_eig >= -tol and sigma_min >= -tol:
            return Membership.BOUNDARY
        return Membership.OUTSIDE


def operator(p: Problem, s: np.ndarray) -> np.ndarray:
    """G(s) as a dense array; s is a float array of length ``p.dual_dim``,
    or a stack of them (one G per row)."""
    q = len(p.dual_terms)
    lead = s.shape[:-1]
    G = np.empty(lead + p.plain_block.shape)
    G[...] = p.plain_block
    for k, idx in enumerate(p.dual_terms):
        G += s[..., k, None, None] * p.terms[idx].Q
    if p.is_sign_integer:  # 2 sigma on the diagonal, a strided view of G
        G.reshape(lead + (p.n * p.n,))[..., ::p.n + 1] += 2.0 * s[..., q:]
    return G


def assemble_G(p: Problem, s) -> GapMatrix:
    """G(s), where s is checked: it must have ``dual_dim`` entries, and G(s)
    must be finite (a NaN, an infinite or an overflowing s fails)."""
    s = np.array(s, dtype=float).reshape(-1)  # a copy: the caller may reuse its array
    if s.shape != (p.dual_dim,):
        raise DimensionMismatch(f"dual point has length {len(s)}, expected {p.dual_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        G = operator(p, s)
    if not np.isfinite(G).all():
        raise InvalidMatrix("G(s) has non-finite entries")
    return GapMatrix(p, s, G)


def conjugate_total(p: Problem, s: np.ndarray) -> float:
    """sum_s Phi*_s(varsigma_s) + e'sigma, the conjugate part of Xi."""
    q = len(p.dual_terms)
    total = 0.0
    for varsig_s, idx in zip(s[:q], p.dual_terms):
        total += model.conj_value(p.terms[idx], float(varsig_s))
    if p.is_sign_integer:
        total += float(s[q:].sum())
    return total


def eval_Xi(p: Problem, x, s) -> float:
    x = np.asarray(x, dtype=float).reshape(-1)
    gm = assemble_G(p, s)
    return 0.5 * float(x @ (gm.G @ x)) - conjugate_total(p, gm.s) - float(x @ p.f)


def gap_value(p: Problem, x, s) -> float:
    """Quadratic gap 0.5 x'G(s)x; nonnegative for every x exactly when G(s) is PSD."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return 0.5 * float(x @ (assemble_G(p, s).G @ x))


# The GapMatrix at s, one quantity each, for callers that hold only s.
def recover_x(p: Problem, s) -> np.ndarray:
    return assemble_G(p, s).x


def eval_dual(p: Problem, s) -> float:
    return assemble_G(p, s).value


def grad_dual(p: Problem, s) -> np.ndarray:
    return assemble_G(p, s).grad


def in_S_plus(p: Problem, s) -> Membership:
    return assemble_G(p, s).membership


def coordinate_images(p: Problem, x) -> np.ndarray:
    """Columns dG/ds_c x = w_c B_c'(B_c x), the Jacobian of G(s)x in s, as an
    (n, dual_dim) matrix (see ``Problem.coordinate_rows``); a stack of
    points x (one per row) gives one matrix each."""
    rows = p.coordinate_rows
    return rows.weights * rows.block_sum(rows.Bt * np.matmul(x[..., None, :], rows.Bt), axis=-1)


def bare_grads(p: Problem, s: np.ndarray, x: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Gradient g = 0.5 x'A - dPhi*_c of the bare dual objective at a dual
    point s, or at each of a stack of them (one per row), with x = G^-1 f
    and A their ``coordinate_images``: a sign multiplier's conjugate part is
    sigma_i itself, so it adds -1.  The arithmetic of each row is that of
    the point alone, so that ``DualPoint.bare_grad``, this at one point,
    does not depend on the stack: the products are vector products, a
    quartic conjugate gradient s/alpha - beta is the same two operations on
    a column, and the exponential and xlogx ones are the scalar
    ``model.conj_grad``."""
    g = 0.5 * (x[..., None, :] @ images)[..., 0, :]
    gt, st = g.T, s.T  # gt[k]: coordinate k of the point, or its column of the stack
    for k, idx in enumerate(p.dual_terms):
        t = p.terms[idx]
        if t.kind is model.TermKind.QUARTIC:
            gt[k] -= st[k] / t.alpha - t.beta
        else:
            values = st[k].tolist()  # a float, or a list of them
            gt[k] -= ([model.conj_grad(t, v) for v in values] if isinstance(values, list)
                      else model.conj_grad(t, values))
    gt[len(p.dual_terms):] -= 1.0
    return g


def bare_hessians(p: Problem, s: np.ndarray, G: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The LU ``DualPoint.bare_hess`` at a stack of dual points s (one per
    row) inside the LU domain (``screen``), with G their operators and A
    their ``coordinate_images``, and the arithmetic of each row alone: one
    stacked solve G^-1 A, stacked matrix products A'(G^-1 A), and each
    conjugate's second derivative that of ``model.conj_hess``: as a column
    for a quartic term (1/alpha) and an exponential one (1/sigma), by the
    scalar call for xlogx, whose np.exp and math.exp bits differ."""
    H = -np.matmul(images.swapaxes(-1, -2), np.linalg.solve(G, images))
    for k, idx in enumerate(p.dual_terms):
        t = p.terms[idx]
        H[:, k, k] -= (1.0 / t.alpha if t.kind is model.TermKind.QUARTIC
                       else 1.0 / s[:, k] if t.kind is model.TermKind.EXPONENTIAL
                       else [model.conj_hess(t, v) for v in s[:, k].tolist()])
    return H


def domain_slacks(p: Problem, s) -> np.ndarray:
    """Slack |alpha| (s/alpha - beta) of each bounded coordinate
    (``Problem.coordinate_rows.index``), positive inside the dual domain.
    A stack of points (one per row of s) gives one row of slacks each."""
    rows = p.coordinate_rows
    cols = rows.slack_columns
    return cols.scale * (np.asarray(s, dtype=float).take(rows.index, -1) / cols.alpha - cols.beta)


def screen(p: Problem, s, cholesky: bool = True) -> tuple:
    """(outside, slacks) at s, a point or a stack of points (one per row):
    the ``domain_slacks`` and whether each point fails the domain test,
    the one test of ``factor_point`` and ``critical.factor_stack`` before they form
    G.  A Cholesky point fails on a slack that is not positive.  An LU
    point fails on a negative slack, or on a zero slack of a ``strict``
    (exponential) coordinate, where the conjugate is undefined."""
    slacks = domain_slacks(p, s)
    if cholesky:
        return (slacks <= 0.0).any(axis=-1), slacks
    strict = p.coordinate_rows.slack_columns.strict
    return ((slacks < 0.0) | ((slacks == 0.0) & strict)).any(axis=-1), slacks


class DualPoint:
    """A dual point, factorized once; build it with ``factor_point``.

    Holds the domain slacks (``domain_slacks``), G, x = G^-1 f and a
    factorization of G.  The Cholesky form (L given) serves the barrier
    ascent and the polish, where G is positive definite: x comes from two
    triangular solves with L, and sum log diag L and L^-1 give the log-det
    terms.  The LU form (L None) serves classification, where G may be
    indefinite: x and the G^-1 A term of the Hessian come from
    ``np.linalg.solve``; the root search keeps its LU points as arrays
    (``critical.PointStack``).  The domain test of ``factor_point`` keeps
    every conjugate defined, so everything else is computed on first use:
    the barrier-free value -0.5 f'x - conjugate total (``bare_value``, all
    that the barrier merit of a line-search trial reads), the bare gradient
    (``bare_grad``, all that the gradient-norm merit reads), the bare
    Hessian (``bare_hess``, with L^-1) and the log-det derivatives.
    ``barrier`` and ``barrier_derivs`` combine them with the slack terms at
    any barrier weight.
    """

    def __init__(self, p: Problem, s: np.ndarray, slacks: np.ndarray, G: np.ndarray,
                 L: Optional[np.ndarray]):
        self.p, self.s, self.slacks, self.G, self.L = p, s, slacks, G, L
        if L is None:
            self.x = np.linalg.solve(G, p.f)
        else:
            self.x = np.linalg.solve(L.T, np.linalg.solve(L, p.f))
            self.logdet = float(np.log(L.diagonal()).sum())  # 0.5 log det G

    @cached_property
    def bare_value(self) -> float:
        return -0.5 * float(self.p.f @ self.x) - conjugate_total(self.p, self.s)

    def clears(self, margin: float) -> bool:
        """Whether every slack and the smallest eigenvalue of G exceed the
        margin and G is nonsingular: a Cholesky test of G - c I with
        c = max(margin, boundary_tol(G)), the tolerance below which
        ``grad_dual`` calls G singular."""
        if (self.slacks <= margin).any():
            return False
        G = self.G.copy()
        G.reshape(-1)[::len(G) + 1] -= max(margin, boundary_tol(G))  # G - c I
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return False
        return True

    def barrier(self, mu: float) -> float:
        """Barrier objective Pi_d + mu log det G + mu sum log slack; mu > 0
        needs the Cholesky form."""
        val = self.bare_value
        if mu > 0.0:
            val += 2.0 * mu * self.logdet
            # summed in order: np.sum pairs the terms and moves the last bits
            for slack in self.slacks.tolist():
                val += mu * math.log(slack)
        return val

    def barrier_derivs(self, mu: float) -> tuple:
        """Gradient and symmetrized Hessian of ``barrier``: the bare
        derivatives plus mu times those of log det G (``logdet_derivs``) and
        of the log slacks."""
        if mu > 0.0:
            g_ld, H_ld = self.logdet_derivs
            g, H = self.bare_grad + mu * g_ld, self.bare_hess - mu * H_ld
            rows = self.p.coordinate_rows
            idx = rows.index
            d = rows.slack_columns.direction
            g[idx] += mu * d / self.slacks
            # the diagonal of H as a strided view: a 1-d index is cheaper than H[idx, idx]
            H.reshape(-1)[::len(g) + 1][idx] -= mu * (d / self.slacks) ** 2
        else:
            g, H = self.bare_grad.copy(), self.bare_hess
        return g, 0.5 * (H + H.T)

    def newton_radius(self) -> float:
        """The length r of the bare Newton step d, which solves (-H) d = g
        for the bare derivatives (``barrier_derivs(0.0)``):
        r^2 = d' (grad^2 F) d + sum (d_k / alpha_k)^2.

        The first part is the local norm of the barrier
        F = -log det G - sum log slack, whose Hessian is the H of
        ``logdet_derivs`` plus 1/slack^2 on the bounded coordinates: r < 1
        puts s + d inside the Dikin ellipsoid of F, within the certified
        region.  The sum runs over the xlogx coordinates k, which have no
        slack: along d their conjugate's second derivative
        exp(s/alpha - 1)/alpha changes by the factor exp(d_k / alpha_k),
        which the barrier does not see.  r does not change when the terms,
        f and s are scaled alike.  It is inf where -H is singular (with no
        solve where H is 0) and nan where r^2 is not a nonnegative number
        (an overflow, say)."""
        g, H = self.barrier_derivs(0.0)
        if not H.any():  # x = G^-1 f = 0 and no conjugate curvature, as at f = 0
            return math.inf
        try:
            d = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:
            return math.inf
        rows = self.p.coordinate_rows
        free = ~rows.bounded
        with np.errstate(over="ignore", invalid="ignore"):
            ds = d[rows.index] / self.slacks
            de = d[free] / rows.alpha[free]
            r2 = float(d @ self.logdet_derivs[1] @ d + ds @ ds + de @ de)
        return math.sqrt(r2) if r2 >= 0.0 else math.nan

    @cached_property
    def Linv(self) -> np.ndarray:
        return np.linalg.inv(self.L)

    @cached_property
    def images(self) -> np.ndarray:
        """A, the coordinate images of x (``coordinate_images``)."""
        return coordinate_images(self.p, self.x)

    @cached_property
    def bare_grad(self) -> np.ndarray:
        """Gradient of the bare dual objective: ``bare_grads`` at this point."""
        return bare_grads(self.p, self.s, self.x, self.images)

    @cached_property
    def bare_hess(self) -> np.ndarray:
        """(Unsymmetrized) Hessian of the bare dual objective,
        H = -(A'Ginv A) - diag(Phi*''_c); a sign multiplier adds nothing.
        The LU form is ``bare_hessians`` on a stack of one."""
        p = self.p
        A = self.images
        if self.L is None:
            return bare_hessians(p, self.s[None], self.G[None], A[None])[0]
        W = self.Linv @ A
        H = -(W.T @ W)
        for k, idx in enumerate(p.dual_terms):
            H[k, k] -= model.conj_hess(p.terms[idx], float(self.s[k]))
        return H

    @cached_property
    def logdet_derivs(self) -> tuple:
        """(g, H) with g the gradient of log det G and -H its Hessian.

        With R = L^-1 B' and M = R'R, coordinate c gives
        g_c = w_c tr(B_c Ginv B_c') = w_c (sum of diag M over block c) and
        H_cd = w_c w_d ||B_c Ginv B_d'||_F^2 = w_c w_d (sum of M o M over
        block (c, d)); see ``Problem.coordinate_rows``.
        """
        rows = self.p.coordinate_rows
        R = self.Linv @ rows.Bt
        M = R.T @ R
        w = rows.weights
        g = w * rows.block_sum(M.diagonal())
        H = w[:, None] * rows.block_sum(rows.block_sum(M * M, axis=1), axis=0) * w
        return g, H


def factor_point(p: Problem, s, cholesky: bool = True) -> Optional[DualPoint]:
    """The factorized point at s, or None outside the domain.  A Cholesky
    point needs positive domain slacks and G positive definite (the open
    certified region, where the barrier is finite).  An LU point needs
    nonnegative slacks with the conjugates defined (the closed dual domain,
    where a critical pair may sit) and G nonsingular with a finite
    x = G^-1 f.  The slacks are tested by ``screen``, before G is formed."""
    outside, slacks = screen(p, s, cholesky)
    if outside:
        return None
    G = operator(p, s)
    try:
        point = DualPoint(p, s, slacks, G, np.linalg.cholesky(G) if cholesky else None)
    except np.linalg.LinAlgError:
        return None
    return point if cholesky or np.all(np.isfinite(point.x)) else None


@dataclass
class SolveReport:
    """Outcome of a dual solve, including the recorded duality residual."""

    x_bar: np.ndarray
    sigma_bar: np.ndarray
    primal_value: float
    dual_value: float
    duality_residual: float
    triality_class: str
    iterations: int
    boundary_flag: bool
    status: str  # interior | boundary | perturbation
    grad_norm: float = float("nan")
    recovery_residual: float = float("nan")
    perturb_rounds: int = 0
    messages: tuple = ()
