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
its value (``barrier``) and derivatives (``barrier_derivs``) at any mu.
``grad_dual`` stays on the eigendecomposition, as the reference those
derivatives are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg, model
from .errors import DimensionMismatch, DomainViolation, RangeViolation, SingularG
from .linalg import EigenDecomp
from .model import Problem

RANGE_TOL = 1e-8


def boundary_tol(G: np.ndarray) -> float:
    """Scale-invariant eigenvalue dead zone for boundary detection."""
    return 1e-8 * (1.0 + float(np.linalg.norm(G, "fro")))


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(eq=False)
class GapMatrix:
    """Assembled G(s) with cached spectral data."""

    G: np.ndarray
    decomp: EigenDecomp

    @property
    def min_eig(self) -> float:
        return float(self.decomp.eigvals[0])

    @property
    def tol(self) -> float:
        return boundary_tol(self.G)

    def is_singular(self) -> bool:
        return bool(np.min(np.abs(self.decomp.eigvals)) <= self.tol)

    def apply_pinv(self, b: np.ndarray) -> np.ndarray:
        w, v = self.decomp
        cutoff = linalg.DEFAULT_RANK_TOL * np.max(np.abs(w)) if w.size else 0.0
        coeff = v.T @ b
        inv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
        return v @ (coeff * inv)


def split_dual(p: Problem, s) -> tuple:
    """Split a stacked dual vector into (term coordinates, sigma block)."""
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.shape != (p.dual_dim,):
        raise DimensionMismatch(f"dual point has length {len(s)}, expected {p.dual_dim}")
    q = len(p.dual_terms)
    return s[:q], (s[q:] if p.is_sign_integer else None)


def operator(p: Problem, s) -> np.ndarray:
    """The bare operator G(s) as a dense array, without spectral data."""
    varsig, sigma = split_dual(p, s)
    G = p.plain_block.copy()
    for varsig_s, idx in zip(varsig, p.dual_terms):
        G += varsig_s * p.terms[idx].Q
    if sigma is not None:
        G[np.diag_indices(p.n)] += 2.0 * sigma
    return G


def assemble_G(p: Problem, s) -> GapMatrix:
    G = operator(p, s)
    return GapMatrix(G=G, decomp=linalg.eigh(G))


def conjugate_total(p: Problem, s) -> float:
    """sum_s Phi*_s(varsigma_s) + e'sigma, the conjugate part of Xi."""
    varsig, sigma = split_dual(p, s)
    total = 0.0
    for varsig_s, idx in zip(varsig, p.dual_terms):
        total += model.conj_value(p.terms[idx], float(varsig_s))
    if sigma is not None:
        total += float(np.sum(sigma))
    return total


def eval_Xi(p: Problem, x, s) -> float:
    x = np.asarray(x, dtype=float).reshape(-1)
    gm = assemble_G(p, s)
    return 0.5 * float(x @ (gm.G @ x)) - conjugate_total(p, s) - float(x @ p.f)


def gap_value(p: Problem, x, s) -> float:
    """Quadratic gap 0.5 x'G(s)x; nonnegative for every x exactly when G(s) is PSD."""
    x = np.asarray(x, dtype=float).reshape(-1)
    gm = assemble_G(p, s)
    return 0.5 * float(x @ (gm.G @ x))


def recover_x(p: Problem, s, gm: Optional[GapMatrix] = None, range_tol: float = RANGE_TOL) -> np.ndarray:
    """Primal recovery x = [G(s)]^+ f with a range-compatibility check."""
    gm = gm if gm is not None else assemble_G(p, s)
    x = gm.apply_pinv(p.f)
    residual = float(np.linalg.norm(gm.G @ x - p.f))
    if residual > range_tol * p.f_scale:
        raise RangeViolation(
            f"input not in range of G (residual {residual:.3e}); dual point outside "
            "the admissible dual set",
            residual=residual,
        )
    return x


def eval_dual(p: Problem, s, gm: Optional[GapMatrix] = None, range_tol: float = RANGE_TOL) -> float:
    gm = gm if gm is not None else assemble_G(p, s)
    x = recover_x(p, s, gm=gm, range_tol=range_tol)
    return -0.5 * float(p.f @ x) - conjugate_total(p, s)


def grad_dual(p: Problem, s, gm: Optional[GapMatrix] = None) -> np.ndarray:
    """Gradient of the dual objective at a nonsingular interior point.

    Component for term s: 0.5 x'Q_s x - dPhi*_s(varsigma_s) with x = G^-1 f;
    component for sigma_i: x_i^2 - 1.
    """
    gm = gm if gm is not None else assemble_G(p, s)
    if gm.is_singular():
        raise SingularG("dual gradient undefined where G is singular")
    varsig, sigma = split_dual(p, s)
    x = gm.apply_pinv(p.f)
    g = np.empty(p.dual_dim)
    for k, (varsig_s, idx) in enumerate(zip(varsig, p.dual_terms)):
        t = p.terms[idx]
        v = t.factor @ x
        g[k] = 0.5 * float(v @ v) - model.conj_grad(t, float(varsig_s))
    if sigma is not None:
        g[len(varsig):] = x * x - 1.0
    return g


def coordinate_images(p: Problem, x) -> np.ndarray:
    """Columns dG/ds_c x = w_c B_c'(B_c x), the Jacobian of G(s)x in s, as an
    (n, dual_dim) matrix (see ``Problem.coordinate_rows``)."""
    rows = p.coordinate_rows
    return rows.weights * rows.block_sum(rows.Bt * (x @ rows.Bt), axis=1)


def domain_slacks(p: Problem, s) -> np.ndarray:
    """Slack |alpha| (s/alpha - beta) of each bounded coordinate
    (``Problem.coordinate_rows.index``), positive inside the dual domain."""
    rows = p.coordinate_rows
    i = rows.index
    alpha = rows.alpha[i]
    return np.abs(alpha) * (np.asarray(s, dtype=float)[i] / alpha - rows.beta[i])


def in_S_plus(p: Problem, s, tol: Optional[float] = None,
              gm: Optional[GapMatrix] = None) -> Membership:
    """Membership of the certified dual region.

    interior: G(s) strictly positive definite (and sigma strictly positive for
    sign-integer problems); boundary: positive semidefinite with a zero
    eigenvalue, or a sigma pinned at zero; outside otherwise.
    """
    gm = gm if gm is not None else assemble_G(p, s)
    tol = tol if tol is not None else gm.tol
    _, sigma = split_dual(p, s)
    min_eig = gm.min_eig
    sigma_min = float(np.min(sigma)) if sigma is not None and sigma.size else np.inf
    if min_eig > tol and sigma_min > tol:
        return Membership.INTERIOR
    if min_eig >= -tol and sigma_min >= -tol:
        return Membership.BOUNDARY
    return Membership.OUTSIDE


class DualPoint:
    """A dual point, factorized once; build it with ``factor_point``.

    Holds the domain slacks (``domain_slacks``), G, x = G^-1 f, the
    barrier-free value -0.5 f'x - conjugate total and a factorization of G.
    The Cholesky form (L given) serves the barrier ascent and the polish,
    where G is positive definite: x comes from two triangular solves with L,
    and sum log diag L and L^-1 give the log-det terms.  The LU form (L None)
    serves the root search and classification, where G may be indefinite:
    x and the G^-1 A term of the Hessian come from ``np.linalg.solve``.  The
    bare derivatives and the log-det derivatives are computed on first use,
    and ``barrier`` and ``barrier_derivs`` combine them with the slack terms
    at any barrier weight.
    """

    def __init__(self, p: Problem, s: np.ndarray, slacks: np.ndarray, G: np.ndarray,
                 L: Optional[np.ndarray]):
        self.p, self.s, self.slacks, self.G, self.L = p, s, slacks, G, L
        if L is None:
            self.x = np.linalg.solve(G, p.f)
        else:
            self.x = np.linalg.solve(L.T, np.linalg.solve(L, p.f))
            self.logdet = float(np.sum(np.log(np.diag(L))))  # 0.5 log det G
        self.bare_value = -0.5 * float(p.f @ self.x) - conjugate_total(p, s)

    def clears(self, margin: float) -> bool:
        """Whether every slack and the smallest eigenvalue of G exceed the
        margin and G is nonsingular: a Cholesky test of G - c I with
        c = max(margin, boundary_tol(G)), the tolerance below which
        ``grad_dual`` calls G singular."""
        if (self.slacks <= margin).any():
            return False
        G = self.G
        try:
            np.linalg.cholesky(G - max(margin, boundary_tol(G)) * np.eye(len(G)))
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
        g, H = (a.copy() for a in self.bare)
        if mu > 0.0:
            g_ld, H_ld = self.logdet_derivs
            g += mu * g_ld
            H -= mu * H_ld
            rows = self.p.coordinate_rows
            idx = rows.index
            d = rows.direction[idx]
            g[idx] += mu * d / self.slacks
            # float_power calls C pow(), which the solve's bits depend on;
            # an array's ** 2 squares instead, and differs from pow() in the
            # last bit on about 0.1% of inputs
            H[idx, idx] -= mu * np.float_power(d / self.slacks, 2.0)
        return g, 0.5 * (H + H.T)

    @cached_property
    def Linv(self) -> np.ndarray:
        return np.linalg.inv(self.L)

    @cached_property
    def bare(self) -> tuple:
        """Gradient and (unsymmetrized) Hessian of the bare dual objective:
        g = 0.5 x'A - dPhi*_c and H = -(A'Ginv A) - diag(Phi*''_c) with A the
        coordinate images of x.  A sign multiplier's conjugate part is
        sigma_i itself, so it adds -1 to g and nothing to H."""
        p = self.p
        varsig, _ = split_dual(p, self.s)
        A = coordinate_images(p, self.x)
        g = 0.5 * (self.x @ A)
        if self.L is None:
            H = -(A.T @ np.linalg.solve(self.G, A))
        else:
            W = self.Linv @ A
            H = -(W.T @ W)
        for k, (varsig_s, idx) in enumerate(zip(varsig, p.dual_terms)):
            t = p.terms[idx]
            g[k] -= model.conj_grad(t, float(varsig_s))
            H[k, k] -= model.conj_hess(t, float(varsig_s))
        g[len(varsig):] -= 1.0
        return g, H

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
    x = G^-1 f."""
    slacks = domain_slacks(p, s)
    if (slacks <= 0.0).any() if cholesky else (slacks < 0.0).any():
        return None
    G = operator(p, s)
    try:
        point = DualPoint(p, s, slacks, G, np.linalg.cholesky(G) if cholesky else None)
    except (np.linalg.LinAlgError, DomainViolation):
        return None
    return point if cholesky or np.all(np.isfinite(point.x)) else None


def zero_gap_residuals(p: Problem, x, s) -> tuple:
    """(|Pi - Pi_d| , |Xi - Pi|) at a candidate pair, both unnormalized."""
    pi = model.eval_primal(p, x)
    pid = eval_dual(p, s)
    xi_val = eval_Xi(p, x, s)
    return abs(pi - pid), abs(xi_val - pi)


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

    def to_dict(self) -> dict:
        return {
            "x_bar": [float(v) for v in np.atleast_1d(self.x_bar)],
            "sigma_bar": [float(v) for v in np.atleast_1d(self.sigma_bar)],
            "primal_value": float(self.primal_value),
            "dual_value": float(self.dual_value),
            "duality_residual": float(self.duality_residual),
            "triality_class": self.triality_class,
            "iterations": int(self.iterations),
            "boundary_flag": bool(self.boundary_flag),
            "status": self.status,
            "grad_norm": float(self.grad_norm),
            "recovery_residual": float(self.recovery_residual),
            "perturb_rounds": int(self.perturb_rounds),
            "messages": list(self.messages),
        }
