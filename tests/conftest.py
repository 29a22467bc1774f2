import numpy as np
import pytest

from canondual.errors import DimensionMismatch
from canondual.model import CanonicalTerm, Problem, TermKind
from canondual.relaxations import RltProblem, SdpaData, _var_names

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


# Readers of the two export formats and the LP arbiter.  The package writes
# the relaxations but never solves them; HiGHS (through scipy, from the test
# extra) solves the level-1 LP.


def parse_sdpa(path) -> SdpaData:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith(('"', "*"))]
    m = int(raw[0])
    nblocks = int(raw[1])
    sizes = [int(tok) for tok in raw[2].replace(",", " ").split()]
    if len(sizes) != nblocks:
        raise DimensionMismatch("block size list does not match the block count")
    c = [float(tok) for tok in raw[3].replace(",", " ").split()]
    entries = {}
    for ln in raw[4:]:
        mat, blk, i, j, val = ln.split()
        entries[(int(mat), int(blk), int(i), int(j))] = float(val)
    return SdpaData(m=m, block_sizes=sizes, c=c, entries=entries)


def parse_rlt_lp(path) -> RltProblem:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("vars "):
        raise DimensionMismatch("missing vars header")
    n = int(lines[0].split()[1])
    names = _var_names(n)
    index = {name: k for k, name in enumerate(names)}

    def parse_terms(text: str) -> np.ndarray:
        coeffs = np.zeros(len(names))
        text = text.strip()
        if text == "0":
            return coeffs
        for part in text.split(" + "):
            coef, name = part.split()
            coeffs[index[name]] += float(coef)
        return coeffs

    obj = None
    rows, rhs = [], []
    lower = np.zeros(n)
    upper = np.zeros(n)
    mode = None
    for ln in lines[1:]:
        if ln.startswith("minimize: "):
            obj = parse_terms(ln[len("minimize: "):])
        elif ln == "subject:":
            mode = "rows"
        elif ln == "bounds:":
            mode = "bounds"
        elif ln == "end":
            break
        elif mode == "rows":
            _, body = ln.split(": ", 1)
            expr, b = body.rsplit(" >= ", 1)
            rows.append(parse_terms(expr))
            rhs.append(float(b))
        elif mode == "bounds":
            lo_s, rest = ln.split(" <= ", 1)
            name, hi_s = rest.split(" <= ")
            i = int(name.split("_")[1]) - 1
            lower[i] = float(lo_s)
            upper[i] = float(hi_s)
    if obj is None:
        raise DimensionMismatch("missing objective line")
    return RltProblem(
        n=n,
        obj=obj,
        rows=np.array(rows) if rows else np.zeros((0, len(names))),
        rhs=np.array(rhs),
        lower=lower,
        upper=upper,
    )


def highs_rlt(lp: RltProblem):
    """``scipy.optimize.linprog`` result of the relaxation: rows as <= after
    negation, box bounds on x, free product surrogates."""
    from scipy.optimize import linprog

    bounds = list(zip(lp.lower, lp.upper)) + [(None, None)] * len(lp.pairs)
    return linprog(lp.obj, A_ub=-lp.rows, b_ub=-lp.rhs, bounds=bounds, method="highs")


def solve_rlt(lp: RltProblem) -> tuple:
    """(x, xi, value) at the HiGHS optimum; xi follows ``pair_index`` order."""
    res = highs_rlt(lp)
    assert res.status == 0, res.message
    return res.x[: lp.n], res.x[lp.n:], float(res.fun)


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
