"""Canonical dual solvers for nonconvex quadratic-measure programs.

The package models objectives built from canonical terms over factored
quadratic operators, maximizes the concave dual over the certified
positive-semidefinite region, recovers primal solutions analytically,
classifies critical pairs, handles sign-integer quadratic programs through
the same dual plus a perturbation scheme, and cross-checks everything
against brute-force oracles at desk scale.

A solve runs neither the oracles nor the relaxations, so ``oracle`` and
``relaxations``, and the names re-exported from ``oracle``, load on first
use through the module ``__getattr__`` (PEP 562): ``import canondual`` and
``canon-dual solve`` do not compile them.
"""

import importlib

__version__ = "0.1.0"

from . import dual, errors, integer, linalg, model, solver, triality
from .dual import Membership, SolveReport, assemble_G, eval_Xi, eval_dual, gap_value, grad_dual, in_S_plus, recover_x
from .errors import CanonDualError
from .integer import QipInstance, QipReport, qip_dual_solve
from .model import CanonicalTerm, Problem, TermKind, Variables, eval_primal, load_problem
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

# name -> the submodule that defines it; a submodule maps to itself
_LAZY = {"oracle": "oracle", "relaxations": "relaxations", "OracleResult": "oracle",
         "enumerate_signs": "oracle", "grid_multistart": "oracle"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
