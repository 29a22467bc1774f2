import numpy as np
import pytest

from canondual.model import CanonicalTerm, Problem, TermKind

KINDS = (TermKind.PLAIN_QUADRATIC, TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX)

# High-precision roots of s^3 + 2 s^2 - 1/8 = 0, the radial well stationarity
# condition at alpha=1, lam=2, |f|=0.5 (Newton-refined in 50-digit decimal).
WELL_S1 = 0.23641695449762777
WELL_S2 = -0.2687007885126129
WELL_S3 = -1.9677161659850149
WELL_X1 = 2.1149075414767558
# Magnitude where the cubic switches from three real roots to one.
WELL_FC = 1.5396007178390020


def double_well(f: float, alpha: float = 1.0, lam: float = 2.0, n: int = 1) -> Problem:
    """Radial quartic well 0.5*alpha*(0.5|x|^2 - lam)^2 - f'x, encoded beta = -lam."""
    term = CanonicalTerm(kind=TermKind.QUARTIC, factor=np.eye(n), alpha=alpha, beta=-lam)
    fvec = np.zeros(n)
    fvec[0] = f
    return Problem(n=n, terms=(term,), f=fvec)


def random_problem(rng: np.random.Generator, n_max: int = 8, max_terms: int = 3,
                   f_scale: float = 0.6) -> Problem:
    """Random well-posed continuous problem with positive coefficients.

    Every factor is square and generically full rank, so the assembled
    operator can be made positive definite and the certified region has a
    nonempty interior.
    """
    n = int(rng.integers(1, n_max + 1))
    n_terms = int(rng.integers(1, max_terms + 1))
    kinds = [KINDS[int(k)] for k in rng.integers(0, 4, n_terms)]
    if all(k is TermKind.PLAIN_QUADRATIC for k in kinds):
        kinds[0] = KINDS[int(rng.integers(1, 4))]
    terms = []
    for kind in kinds:
        D = rng.standard_normal((n, n)) / np.sqrt(n)
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(-1.5, 1.0)) if kind is TermKind.QUARTIC else 0.0
        terms.append(CanonicalTerm(kind=kind, factor=D, alpha=alpha, beta=beta))
    f = f_scale * rng.standard_normal(n)
    return Problem(n=n, terms=terms, f=f)


def random_qip(rng: np.random.Generator, n: int, f_style: str = "uniform"):
    from canondual.integer import QipInstance

    A = rng.uniform(-1.0, 1.0, (n, n))
    Q = 0.5 * (A + A.T)
    if f_style == "uniform":
        f = 3.0 * n * np.ones(n) / np.sqrt(n)
    elif f_style == "random_unit":
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        f = 3.0 * n * u
    else:
        f = np.zeros(n)
    return QipInstance(Q=Q, f=f)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# One line per acceptance criterion, shown in the terminal summary so the
# PASS/FAIL verdicts survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
