"""Dense symmetric linear algebra at desk scale.

Everything here operates on plain float64 ndarrays.  The eigensolver is
LAPACK's ``eigh`` through numpy, and ``apply_pinv`` applies the
pseudoinverse from its decomposition.  ``eigh`` trusts its input: the
package's own matrices (G(s), the primal and dual Hessians) are exactly
symmetric by construction, and ``dual.assemble_G`` checks that G(s) is
finite.  A matrix from outside is checked where it enters, by
``check_symmetric`` (finite, symmetric to 1e-12 relative, then
symmetrized): in ``QipInstance``, ``build_rlt`` and ``schur_psd_check``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix

SYM_RTOL = 1e-12
RANK_TOL = 1e-10


class EigenDecomp(NamedTuple):
    eigvals: np.ndarray  # ascending
    eigvecs: np.ndarray  # orthonormal columns, M = V diag(w) V'


def check_symmetric(M, name: str = "matrix") -> np.ndarray:
    """Validate and return an exactly symmetrized float64 copy of ``M``."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix(f"{name} has non-finite entries")
    scale = np.max(np.abs(A)) if A.size else 0.0
    with np.errstate(over="ignore"):  # a difference past the double range is asymmetry
        if A.size and np.max(np.abs(A - A.T)) > SYM_RTOL * max(scale, 1.0):
            raise InvalidMatrix(f"{name} is not symmetric within tolerance")
    return 0.5 * A + 0.5 * A.T  # 0.5 * (A + A.T) overflows near the double range


def eigh(M: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a finite, exactly symmetric matrix, eigenvalues
    ascending; LAPACK reads only its lower triangle."""
    w, v = np.linalg.eigh(M)
    return EigenDecomp(w, v)


def apply_pinv(decomp: EigenDecomp, b: np.ndarray) -> np.ndarray:
    """[M]^+ b from the eigendecomposition of M.  Eigenvalues with magnitude
    at most RANK_TOL times the largest are treated as exact zeros."""
    w, v = decomp
    cutoff = RANK_TOL * np.max(np.abs(w)) if w.size else 0.0
    coeff = v.T @ b
    inv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return v @ (coeff * inv)
