"""Classification of matched critical pairs.

A pair (x, s) is critical when x is stationary for the primal (a sign
vector, for sign problems), s for the dual, and G(s) x = f pairs them;
other pairs raise NotCritical.

The sign of G at the dual point decides the branch: a positive semidefinite
G certifies a global minimizer, a negative definite G splits into the
double-max case (primal Hessian negative definite, the point is a local
maximizer of both objectives) and the double-min case (primal Hessian
positive definite, a local minimizer of both, asserted in strong form only
when the primal dimension equals the dual coordinate count).  Everything
in between is reported honestly as boundary-degenerate or unclassified;
second-order evidence comes from the analytic primal Hessian cross-checked
against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import dual, linalg, model
from .errors import NotCritical, SingularG
from .model import Problem, TermKind

DEFAULT_CRIT_TOL = 1e-6


class TrialityLabel(str, Enum):
    GLOBAL_MIN = "global_min"
    LOCAL_MAX = "local_max"
    LOCAL_MIN = "local_min"
    BOUNDARY_DEGENERATE = "boundary_degenerate"
    UNCLASSIFIED = "unclassified"


@dataclass
class TrialityClass:
    label: TrialityLabel
    dims_equal: bool
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label.value,
            "dims_equal": self.dims_equal,
            "evidence": {k: v for k, v in self.evidence.items()},
        }


def hessian_primal(p: Problem, x) -> np.ndarray:
    """Analytic Hessian of the primal objective.

    sum_s [ Phi'_s(xi_s) Q_s + Phi''_s(xi_s) (Q_s x)(Q_s x)' ], with alpha
    folded into the plain quadratic contribution.  Needs xi > 0 on xlogx
    terms (raises DomainViolation otherwise).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    H = np.zeros((p.n, p.n))
    for t in p.terms:
        if t.kind is TermKind.PLAIN_QUADRATIC:
            H += t.alpha * t.Q
            continue
        xi = t.xi(x)
        qx = t.factor.T @ (t.factor @ x)
        H += t.phi_grad(xi) * t.Q + t.phi_hess(xi) * np.outer(qx, qx)
    return H


def _dual_stationarity(gm: dual.GapMatrix, x: np.ndarray) -> float:
    """Residual of dual-side stationarity at gm.s, usable on the boundary.

    Nonsingular G: norm of the dual gradient.  Singular G: the canonical
    balance equations, the per-term matching xi_s(x) = dPhi*(varsigma_s)
    and the per-variable x_i^2 = 1 (``classify_pair`` checks G x = f).
    """
    try:
        return float(np.linalg.norm(gm.grad))
    except SingularG:
        pass
    p, s = gm.p, gm.s
    res = 0.0
    for k, idx in enumerate(p.dual_terms):
        t = p.terms[idx]
        res = max(res, abs(t.xi(x) - model.conj_grad(t, float(s[k]))))
    if p.is_sign_integer:
        res = max(res, float(np.max(np.abs(x * x - 1.0))))
    return res


def classify(p: Problem, x_bar, sigma_bar, tol: float = DEFAULT_CRIT_TOL) -> TrialityClass:
    return classify_pair(dual.assemble_G(p, sigma_bar), x_bar, tol)


def classify_pair(gm: dual.GapMatrix, x_bar, tol: float = DEFAULT_CRIT_TOL) -> TrialityClass:
    """Label the pair (x_bar, gm.s), critical to tol (1 + |f|), or raise
    NotCritical."""
    p = gm.p
    x_bar = model._as_point(p, x_bar)
    ctol = tol * p.f_scale

    # a residual that overflows is inf, and a NaN one is not critical either
    with np.errstate(over="ignore", invalid="ignore"):
        if p.is_sign_integer:
            primal_res = 0.0 if np.all(np.abs(np.abs(x_bar) - 1.0) <= ctol) else np.inf
        else:
            primal_res = float(np.linalg.norm(model.grad_primal(p, x_bar)))
        pairing_res = float(np.linalg.norm(gm.G @ x_bar - p.f))
        dual_res = _dual_stationarity(gm, x_bar)
    if not (primal_res <= ctol and dual_res <= ctol and pairing_res <= ctol):
        raise NotCritical(
            f"stationarity residuals (primal {primal_res:.3e}, dual {dual_res:.3e}, "
            f"pairing {pairing_res:.3e}) exceed tolerance {ctol:.3e}"
        )

    gtol = gm.tol
    eigs = gm.decomp.eigvals
    dims_equal = p.n == p.dual_dim
    evidence = {
        "G_eigvals": [float(v) for v in eigs],
        "primal_residual": primal_res,
        "dual_residual": dual_res,
    }

    if eigs[0] >= -gtol:
        label = TrialityLabel.GLOBAL_MIN
        return TrialityClass(label, dims_equal, evidence)

    if eigs[-1] < -gtol:
        # Strictly negative definite G: consult primal curvature.
        if p.is_sign_integer:
            evidence["note"] = "negative definite G on a sign-integer problem"
            return TrialityClass(TrialityLabel.UNCLASSIFIED, dims_equal, evidence)
        Hp = hessian_primal(p, x_bar)
        hw = linalg.eigh(Hp).eigvals
        htol = 1e-8 * (1.0 + float(np.linalg.norm(Hp, "fro")))
        evidence["primal_hessian_eigvals"] = [float(v) for v in hw]
        if hw[-1] < -htol:
            evidence["dual_hessian_eigvals"] = _dual_hess_eigs(p, gm.s)
            return TrialityClass(TrialityLabel.LOCAL_MAX, dims_equal, evidence)
        if hw[0] > htol:
            if dims_equal:
                return TrialityClass(TrialityLabel.LOCAL_MIN, dims_equal, evidence)
            evidence["note"] = (
                "local-min pairing holds only weakly when the primal and dual "
                "dimensions differ"
            )
            return TrialityClass(TrialityLabel.UNCLASSIFIED, dims_equal, evidence)
        if np.min(np.abs(hw)) <= htol:
            return TrialityClass(TrialityLabel.BOUNDARY_DEGENERATE, dims_equal, evidence)
        evidence["note"] = "indefinite primal Hessian at a negative definite G"
        return TrialityClass(TrialityLabel.UNCLASSIFIED, dims_equal, evidence)

    if abs(eigs[-1]) <= gtol:
        # Negative semidefinite with a kernel: degenerate boundary case.
        return TrialityClass(TrialityLabel.BOUNDARY_DEGENERATE, dims_equal, evidence)

    evidence["note"] = "indefinite G, outside both certified regions"
    return TrialityClass(TrialityLabel.UNCLASSIFIED, dims_equal, evidence)


def _dual_hess_eigs(p: Problem, s) -> list:
    """Eigenvalues of the dual Hessian, read from the LU-factored point."""
    point = dual.factor_point(p, s, cholesky=False)
    if point is None:
        return []
    H = point.bare[1]
    return [float(v) for v in linalg.eigh(0.5 * (H + H.T)).eigvals]
