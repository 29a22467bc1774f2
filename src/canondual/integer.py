"""Quadratic programs over sign vectors through the relaxed dual.

An instance minimizes 0.5 x'Qx - f'x over x in {-1,+1}^n.  The sign
constraint is relaxed by the componentwise square measure eps = x o x with
multiplier sigma >= 0, which turns the operator into G(sigma) = Q + 2 diag
(sigma) and the dual objective into -0.5 f'[G(sigma)]^+ f - e'sigma over
{sigma > 0, G(sigma) psd}.  An interior dual maximizer recovers x = G^-1 f
with every component at +-1, a certificate that the snapped sign vector is
the exact optimum; otherwise the perturbation rounds take over and the
answer is flagged as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dual, linalg, model, solver
from .errors import DimensionMismatch, EmptyInterior, MaxIterations, SchemaError
from .model import CanonicalTerm, Problem, TermKind, Variables

SNAP_TOL = 1e-5
CERT_TOL = 1e-7


@dataclass(eq=False)
class QipInstance:
    Q: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.Q = linalg.check_symmetric(self.Q, name="Q")
        self.f = np.asarray(self.f, dtype=float).reshape(-1)
        if self.f.shape[0] != self.Q.shape[0]:
            raise DimensionMismatch(
                f"f has length {len(self.f)}, expected {self.Q.shape[0]}"
            )
        if not np.all(np.isfinite(self.f)):
            raise DimensionMismatch("f has non-finite entries")

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ (self.Q @ x)) - float(x @ self.f)

    def to_problem(self) -> Problem:
        """Split Q into positive and negative spectral parts, each a plain
        quadratic term with a factored operator, so the assembled G matches
        Q + 2 diag(sigma) to rounding."""
        w, v = linalg.eigh(self.Q)
        terms = []
        pos = w > 0.0
        neg = w < 0.0
        if np.any(pos):
            D = (np.sqrt(w[pos])[:, None]) * v[:, pos].T
            terms.append(CanonicalTerm(kind=TermKind.PLAIN_QUADRATIC, factor=D, alpha=1.0))
        if np.any(neg):
            D = (np.sqrt(-w[neg])[:, None]) * v[:, neg].T
            terms.append(CanonicalTerm(kind=TermKind.PLAIN_QUADRATIC, factor=D, alpha=-1.0))
        if not terms:
            terms.append(CanonicalTerm(kind=TermKind.PLAIN_QUADRATIC,
                                       factor=np.zeros((1, self.n)), alpha=1.0))
        return Problem(n=self.n, terms=terms, f=self.f, variables=Variables.SIGN_INTEGER)


@dataclass
class QipReport:
    x_star: np.ndarray
    sigma_star: np.ndarray
    objective: float
    certificate: str  # dual_certified | perturbation_only | failed
    dual_value: float
    solve_report: Optional[dual.SolveReport] = None

    def to_dict(self) -> dict:
        return {
            "x_star": [float(v) for v in self.x_star],
            "sigma_star": [float(v) for v in self.sigma_star],
            "objective": float(self.objective),
            "certificate": self.certificate,
            "dual_value": float(self.dual_value),
        }


def qip_dual_solve(inst: QipInstance, cfg: Optional[solver.SolverConfig] = None) -> QipReport:
    """Barrier maximization of the relaxed dual with perturbation fallback.

    Degradation is encoded in the certificate, never raised: instances whose
    dual maximizer sits on the boundary come back as perturbation_only, and
    a completely failed pipeline returns certificate failed with the best
    sign vector seen.
    """
    return sign_problem_solve(inst.to_problem(), cfg, objective=inst.objective)


def sign_problem_solve(p: Problem, cfg: Optional[solver.SolverConfig] = None,
                       objective=None) -> QipReport:
    """Sign-vector pipeline for any sign-integer problem, quadratic or not."""
    if not p.is_sign_integer:
        raise DimensionMismatch("sign pipeline requires sign_integer variables")
    cfg = cfg or solver.SolverConfig()
    objective = objective or (lambda x: model.eval_primal(p, x))
    report = None
    try:
        report = solver.solve_dual(p, cfg)
    except (EmptyInterior, MaxIterations):
        report = None

    if report is not None and report.status == "interior":
        x = report.x_bar
        if float(np.max(np.abs(np.abs(x) - 1.0))) <= SNAP_TOL:
            x_star = solver.sign_round(x)
            value = objective(x_star)
            if abs(value - report.dual_value) <= CERT_TOL * (1.0 + abs(value)):
                return QipReport(
                    x_star=x_star,
                    sigma_star=np.asarray(report.sigma_bar),
                    objective=value,
                    certificate="dual_certified",
                    dual_value=report.dual_value,
                    solve_report=report,
                )

    try:
        rep = solver.perturbed_solve(p, cfg, base=report)
    except (EmptyInterior, MaxIterations):
        rep = None
    if rep is not None:
        x_star = solver.sign_round(rep.x_bar)
        dual_value = rep.dual_value
        return QipReport(
            x_star=x_star,
            sigma_star=np.asarray(rep.sigma_bar),
            objective=objective(x_star),
            certificate="perturbation_only",
            dual_value=dual_value if math.isfinite(dual_value) else float("nan"),
            solve_report=rep,
        )

    x_star = np.ones(p.n)
    if report is not None:
        x_star = solver.sign_round(report.x_bar)
    return QipReport(
        x_star=x_star,
        sigma_star=np.asarray(report.sigma_bar) if report is not None else np.zeros(p.dual_dim),
        objective=objective(x_star),
        certificate="failed",
        dual_value=report.dual_value if report is not None else float("nan"),
        solve_report=report,
    )


@dataclass
class ComplementarityReport:
    ok: bool
    max_violation: float
    violations: list

    def to_dict(self) -> dict:
        return {
            "ok": bool(self.ok),
            "max_violation": float(self.max_violation),
            "violations": list(self.violations),
        }


def complementarity_check(inst: QipInstance, x, sigma, tol: float = 1e-6) -> ComplementarityReport:
    """Verify the relaxation bookkeeping at a candidate pair.

    Checks eps = x o x <= 1 + tol componentwise, sigma >= -tol, and the
    complementary slackness |sum_i (eps_i - 1) sigma_i| <= tol.  Violations
    are listed, never raised.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    eps = x * x
    violations = []
    over = eps - 1.0
    for i in np.nonzero(over > tol)[0]:
        violations.append(f"eps[{i}] = {eps[i]:.6g} exceeds 1")
    for i in np.nonzero(sigma < -tol)[0]:
        violations.append(f"sigma[{i}] = {sigma[i]:.6g} is negative")
    slackness = abs(float((eps - 1.0) @ sigma))
    if slackness > tol:
        violations.append(f"complementary slackness residual {slackness:.6g}")
    max_violation = max(
        [slackness]
        + [float(v) for v in np.maximum(over, 0.0)]
        + [float(max(0.0, -v)) for v in sigma]
    )
    return ComplementarityReport(ok=not violations, max_violation=max_violation,
                                 violations=violations)


def load_qip(doc) -> QipInstance:
    """Parse the {"qip": {"Q": ..., "f": ...}} document form."""
    doc = model._decode(doc)
    if not isinstance(doc, dict) or set(doc) != {"qip"}:
        raise SchemaError("$", "expected a single top-level 'qip' object")
    body = doc["qip"]
    if not isinstance(body, dict):
        raise SchemaError("$.qip", "must be an object")
    unknown = set(body) - {"Q", "f"}
    if unknown:
        raise SchemaError("$.qip", f"unknown fields {sorted(unknown)}")
    if "Q" not in body or "f" not in body:
        raise SchemaError("$.qip", "requires fields Q and f")
    rows = body["Q"]
    if not isinstance(rows, list) or not rows:
        raise SchemaError("$.qip.Q", "must be a non-empty array of rows")
    Q = [model._number_list(row, f"$.qip.Q[{r}]") for r, row in enumerate(rows)]
    f = model._number_list(body["f"], "$.qip.f")
    widths = {len(row) for row in Q}
    if len(widths) != 1 or widths.pop() != len(Q):
        raise DimensionMismatch("$.qip.Q must be square")
    if len(f) != len(Q):
        raise DimensionMismatch(f"$.qip.f has length {len(f)}, expected {len(Q)}")
    return QipInstance(Q=np.array(Q), f=np.array(f))
