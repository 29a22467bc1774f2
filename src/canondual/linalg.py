"""Dense symmetric linear algebra at desk scale.

Everything here operates on plain float64 ndarrays.  Matrices are validated
once on entry (finite, symmetric to 1e-12 relative) and symmetrized so the
eigensolver sees an exactly symmetric array.  The eigensolver is LAPACK's
``eigh`` through numpy.  All downstream spectral operations (pseudoinverse,
definiteness classification, range-restricted solves) are built on it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, RangeViolation

SYM_RTOL = 1e-12
DEFAULT_RANK_TOL = 1e-10


class EigenDecomp(NamedTuple):
    eigvals: np.ndarray  # ascending
    eigvecs: np.ndarray  # orthonormal columns, M = V diag(w) V'


class PsdClass(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"
    NEGATIVE_SEMIDEFINITE_SINGULAR = "negative_semidefinite_singular"
    NEGATIVE_DEFINITE = "negative_definite"


MIRROR_CLASS = {
    PsdClass.POSITIVE_DEFINITE: PsdClass.NEGATIVE_DEFINITE,
    PsdClass.NEGATIVE_DEFINITE: PsdClass.POSITIVE_DEFINITE,
    PsdClass.POSITIVE_SEMIDEFINITE_SINGULAR: PsdClass.NEGATIVE_SEMIDEFINITE_SINGULAR,
    PsdClass.NEGATIVE_SEMIDEFINITE_SINGULAR: PsdClass.POSITIVE_SEMIDEFINITE_SINGULAR,
    PsdClass.INDEFINITE: PsdClass.INDEFINITE,
}


def check_symmetric(M, name: str = "matrix") -> np.ndarray:
    """Validate and return an exactly symmetrized float64 copy of ``M``."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix(f"{name} has non-finite entries")
    scale = np.max(np.abs(A)) if A.size else 0.0
    if A.size and np.max(np.abs(A - A.T)) > SYM_RTOL * max(scale, 1.0):
        raise InvalidMatrix(f"{name} is not symmetric within tolerance")
    return 0.5 * (A + A.T)


def eigh(M) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    A = check_symmetric(M)
    w, v = np.linalg.eigh(A)
    return EigenDecomp(w, v)


def pinv_from_decomp(decomp: EigenDecomp, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    w, v = decomp
    cutoff = rank_tol * np.max(np.abs(w)) if w.size else 0.0
    inv_w = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (v * inv_w) @ v.T


def pinv(M, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via eigendecomposition.

    Eigenvalues with magnitude at most ``rank_tol`` times the largest
    magnitude are treated as exact zeros; the zero matrix maps to itself.
    """
    return pinv_from_decomp(eigh(M), rank_tol)


def psd_classify(M, tol: float = 1e-9) -> PsdClass:
    """Classify definiteness by eigenvalue signs with dead zone [-tol, tol].

    The zero matrix reports positive semidefinite singular by convention.
    """
    w = eigh(M).eigvals
    return classify_eigvals(w, tol)


def classify_eigvals(w: np.ndarray, tol: float) -> PsdClass:
    pos = int(np.sum(w > tol))
    neg = int(np.sum(w < -tol))
    zero = len(w) - pos - neg
    if pos and neg:
        return PsdClass.INDEFINITE
    if pos:
        return PsdClass.POSITIVE_DEFINITE if zero == 0 else PsdClass.POSITIVE_SEMIDEFINITE_SINGULAR
    if neg:
        return PsdClass.NEGATIVE_DEFINITE if zero == 0 else PsdClass.NEGATIVE_SEMIDEFINITE_SINGULAR
    return PsdClass.POSITIVE_SEMIDEFINITE_SINGULAR


def solve_in_range(M, f, tol: float = 1e-8, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Solve M x = f through the pseudoinverse, verifying f lies in range(M).

    Raises RangeViolation when the residual ||M x - f|| exceeds
    tol * (1 + ||f||), the computable signal that the right-hand side is
    incompatible with the operator.
    """
    A = check_symmetric(M)
    b = np.asarray(f, dtype=float)
    x = pinv(A, rank_tol) @ b
    residual = float(np.linalg.norm(A @ x - b))
    if residual > tol * (1.0 + float(np.linalg.norm(b))):
        raise RangeViolation(
            f"right-hand side outside operator range (residual {residual:.3e})",
            residual=residual,
        )
    return x
