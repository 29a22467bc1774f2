"""Quadratic programs over sign vectors through the relaxed dual.

An instance minimizes 0.5 x'Qx - f'x over x in {-1,+1}^n.  The sign
constraint is relaxed by the componentwise square measure eps = x o x with
multiplier sigma >= 0, which turns the operator into G(sigma) = Q + 2 diag
(sigma) and the dual objective into -0.5 f'[G(sigma)]^+ f - e'sigma over
{sigma > 0, G(sigma) psd}.  An interior dual maximizer recovers x = G^-1 f
with every component at +-1, a certificate that the snapped sign vector is
the exact optimum.  Otherwise that one dual point is rounded: the signs of
x and of x moved along the two lowest eigenvectors of G(sigma), each
improved by single flips.  Such an answer is heuristic (perturbation_only,
the name the report format keeps for it), and the solve's dual value is a
weak-duality lower bound on the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dual, linalg, model, solver
from .errors import DimensionMismatch, EmptyInterior, MaxIterations
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


def qip_dual_solve(inst: QipInstance, cfg: Optional[solver.SolverConfig] = None) -> QipReport:
    """One barrier maximization of the relaxed dual, rounded when it does
    not certify.

    Degradation is encoded in the certificate, never raised: an instance
    whose dual solve gives no certificate comes back as perturbation_only
    (the best rounding of the dual point, no certificate, with the solve's
    dual value as a weak-duality lower bound), and one whose dual solve
    fails comes back as failed with a one-flip descent from all-ones.
    """
    return sign_problem_solve(inst.to_problem(), cfg, objective=inst.objective)


def sign_problem_solve(p: Problem, cfg: Optional[solver.SolverConfig] = None,
                       objective=None) -> QipReport:
    """Sign-vector pipeline for any sign-integer problem, quadratic or not.

    One ``solver.solve_dual``.  An interior point whose x snaps to signs with
    a matched value is dual_certified.  Otherwise the candidates
    ``sign_round(x_bar)`` and ``sign_round(x_bar +- t v)``, for t in {1, 10}
    and v each of the two lowest eigenvectors of G(sigma_bar), run a greedy
    one-flip descent; the lowest objective wins, ties going to the first.
    """
    if not p.is_sign_integer:
        raise DimensionMismatch("sign pipeline requires sign_integer variables")
    cfg = cfg or solver.SolverConfig()
    objective = objective or (lambda x: model.eval_primal(p, x))
    try:
        report = solver.solve_dual(p, cfg)
    except (EmptyInterior, MaxIterations):
        x_star = _descend(p, np.ones(p.n))
        return QipReport(x_star=x_star, sigma_star=np.zeros(p.dual_dim),
                         objective=objective(x_star), certificate="failed",
                         dual_value=float("nan"))

    sigma = np.asarray(report.sigma_bar)
    x = report.x_bar
    if report.status == "interior" and float(np.max(np.abs(np.abs(x) - 1.0))) <= SNAP_TOL:
        x_star = sign_round(x)
        value = objective(x_star)
        if abs(value - report.dual_value) <= CERT_TOL * (1.0 + abs(value)):
            return QipReport(x_star=x_star, sigma_star=sigma, objective=value,
                             certificate="dual_certified", dual_value=report.dual_value)

    vecs = dual.assemble_G(p, sigma).decomp.eigvecs[:, :2].T
    starts = sign_round([x] + [x + sign * t * v for v in vecs
                               for t in (1.0, 10.0) for sign in (1.0, -1.0)])
    _, first = np.unique(starts, axis=0, return_index=True)  # the descent is deterministic
    answers = [_descend(p, starts[i]) for i in np.sort(first)]
    values = [objective(answer) for answer in answers]
    best = int(np.argmin(values))
    dual_value = report.dual_value
    return QipReport(
        x_star=answers[best],
        sigma_star=sigma,
        objective=values[best],
        certificate="perturbation_only",
        dual_value=dual_value if math.isfinite(dual_value) else float("nan"),
    )


def sign_round(x) -> np.ndarray:
    """Componentwise signs, with zeros broken toward +1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def _descend(p: Problem, x: np.ndarray) -> np.ndarray:
    """Greedy one-flip descent: flip the lowest of the n one-flip neighbours
    while it is strictly lower, ties going to the lowest index."""
    value = model.eval_primal_batch(p, x[None, :])[0]
    flip = np.eye(p.n, dtype=bool)
    while True:
        X = np.where(flip, -x, x)  # row i is x with sign i flipped
        values = model.eval_primal_batch(p, X)
        i = int(np.argmin(values))
        if not values[i] < value:
            return x
        x, value = X[i], values[i]


@dataclass
class ComplementarityReport:
    ok: bool
    max_violation: float
    violations: list


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
    """Parse the {"qip": {"Q": ..., "f": ...}} document form; its structure
    is checked here, its shapes by ``QipInstance``."""
    doc = model._object(model._decode(doc), "$", {"qip"})
    body = model._object(doc["qip"], "$.qip", {"Q", "f"})
    Q = model._rows(body["Q"], "$.qip.Q")
    if Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch("$.qip.Q must be square")
    return QipInstance(Q=Q, f=model._numbers(body["f"], "$.qip.f"))
