"""Canonical dual solvers for nonconvex quadratic-measure programs.

The package models objectives built from canonical terms over factored
quadratic operators, maximizes the concave dual over the certified
positive-semidefinite region, recovers primal solutions analytically,
classifies critical pairs, handles sign-integer quadratic programs through
the same dual plus a perturbation scheme, and cross-checks everything
against brute-force oracles at desk scale.
"""

__version__ = "0.1.0"

from . import dual, errors, integer, linalg, model, oracle, relaxations, solver, triality
from .dual import Membership, SolveReport, assemble_G, eval_Xi, eval_dual, gap_value, grad_dual, in_S_plus, recover_x
from .errors import CanonDualError
from .integer import QipInstance, QipReport, qip_dual_solve
from .model import CanonicalTerm, Problem, TermKind, Variables, eval_primal, load_problem
from .oracle import OracleResult, enumerate_signs, grid_multistart
from .solver import SolverConfig, fc_sweep, perturbed_solve, solve_cubic_dual, solve_dual
from .triality import TrialityClass, TrialityLabel, classify, hessian_primal

__all__ = [
    "__version__",
    "CanonDualError",
    "CanonicalTerm",
    "Membership",
    "OracleResult",
    "Problem",
    "QipInstance",
    "QipReport",
    "SolveReport",
    "SolverConfig",
    "TermKind",
    "TrialityClass",
    "TrialityLabel",
    "Variables",
    "assemble_G",
    "classify",
    "enumerate_signs",
    "eval_Xi",
    "eval_dual",
    "eval_primal",
    "fc_sweep",
    "gap_value",
    "grad_dual",
    "grid_multistart",
    "hessian_primal",
    "in_S_plus",
    "load_problem",
    "perturbed_solve",
    "qip_dual_solve",
    "recover_x",
    "solve_cubic_dual",
    "solve_dual",
]
