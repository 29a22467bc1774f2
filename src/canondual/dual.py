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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg, model
from .errors import DimensionMismatch, RangeViolation, SingularG
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
    if residual > range_tol * (1.0 + float(np.linalg.norm(p.f))):
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
    """Columns dG/ds_k x: Q_k x for each dual term, 2 x_i e_i for each sigma_i.

    Term k enters G(s) through Q_k = D_k'D_k and sign multiplier i through
    2 e_i e_i', so this (n, dual_dim) matrix is the Jacobian of G(s)x in s.
    """
    A = np.zeros((p.n, p.dual_dim))
    for k, idx in enumerate(p.dual_terms):
        D = p.terms[idx].factor
        A[:, k] = D.T @ (D @ x)
    if p.is_sign_integer:
        q = len(p.dual_terms)
        A[:, q:] = np.diag(2.0 * x)
    return A


def domain_slacks(p: Problem, s) -> list:
    """Positive-inside slack for every bounded dual-domain coordinate.

    Returns (coordinate index, slack, d slack / d coordinate) triples; xlogx
    coordinates are unbounded and contribute nothing.
    """
    varsig, sigma = split_dual(p, s)
    out = []
    for k, (varsig_s, idx) in enumerate(zip(varsig, p.dual_terms)):
        t = p.terms[idx]
        slack = model.domain_slack(t, float(varsig_s))
        if slack is not None:
            out.append((k, slack, abs(t.alpha) / t.alpha))
    if sigma is not None:
        q = len(varsig)
        for i, sig in enumerate(sigma):
            out.append((q + i, float(sig), 1.0))
    return out


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
