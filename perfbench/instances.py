"""Seeded instance generators for the benchmark workloads.

The formulas follow the generators of the test suite (``random_qip`` and
``double_well`` in tests/conftest.py, and ``random_problem`` restricted to
the continuous workload's term mix), but live here so that editing a test
cannot silently change a workload.  Every instance stream is a pure function
of the benchmark seed and the workload name.
"""

from __future__ import annotations

import zlib

import numpy as np

from canondual import integer, model
from canondual.model import CanonicalTerm, Problem, TermKind

# Roots of the radial well s^3 + 2 s^2 - 1/8 = 0 at alpha=1, lam=2, |f|=0.5,
# and the input magnitude where its dual cubic switches from three real
# roots to one (both from the test suite's closed-form references).
WELL_X1 = 2.1149075414767558
WELL_FC = 1.5396007178390020

SWEEP_GRID = tuple(float(m) for m in np.linspace(0.25, 3.0, 12))

NONPLAIN_KINDS = (TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX)

# The two problem files the README documents for `canon-dual solve`.
README_QIP = {"qip": {"Q": [[0, 1], [1, 0]], "f": [3, 0]}}
README_WELL = {
    "n": 1,
    "variables": "continuous",
    "f": [0.5],
    "terms": [{"kind": "quartic", "alpha": 1.0, "beta": -2.0, "factor": [[1.0]]}],
}
README_QIP_X = (1.0, -1.0)


def stream(seed: int, workload: str) -> np.random.Generator:
    """Generator for one workload's instances; stable across processes."""
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def sign_qp(rng: np.random.Generator, n: int, symmetric: bool) -> integer.QipInstance:
    """Q = sym(U(-1,1)); f = 3 sqrt(n) * ones, or f = 0 for the symmetric case."""
    A = rng.uniform(-1.0, 1.0, (n, n))
    Q = 0.5 * (A + A.T)
    f = np.zeros(n) if symmetric else 3.0 * n * np.ones(n) / np.sqrt(n)
    return integer.QipInstance(Q=Q, f=f)


def continuous_problem(rng: np.random.Generator, n: int) -> Problem:
    """A plain quadratic term plus two terms drawn from quartic, exponential
    and xlogx; square N(0,1)/sqrt(n) factors, alpha ~ U(0.3, 2), quartic
    beta ~ U(-1.5, 1), f = 0.6 N(0, 1)."""
    kinds = [TermKind.PLAIN_QUADRATIC] + [NONPLAIN_KINDS[int(k)] for k in rng.integers(0, 3, 2)]
    terms = []
    for kind in kinds:
        D = rng.standard_normal((n, n)) / np.sqrt(n)
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(-1.5, 1.0)) if kind is TermKind.QUARTIC else 0.0
        terms.append(CanonicalTerm(kind=kind, factor=D, alpha=alpha, beta=beta))
    return Problem(n=n, terms=terms, f=0.6 * rng.standard_normal(n))


def double_well(f: float, alpha: float = 1.0, lam: float = 2.0) -> Problem:
    """Radial quartic well 0.5*alpha*(0.5 x^2 - lam)^2 - f x, encoded beta = -lam."""
    term = CanonicalTerm(kind=TermKind.QUARTIC, factor=np.eye(1), alpha=alpha, beta=-lam)
    return Problem(n=1, terms=(term,), f=np.array([float(f)]))


def expected_sweep_threshold() -> float:
    """First grid magnitude above the uniqueness onset WELL_FC."""
    return min(m for m in SWEEP_GRID if m > WELL_FC)


def tiny_qip() -> integer.QipInstance:
    return integer.load_qip(README_QIP)


def tiny_well() -> Problem:
    return model.load_problem(README_WELL)
