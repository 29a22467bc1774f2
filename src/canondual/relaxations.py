"""Convex reformulations: block-PSD epigraph form and level-1 linearization.

The epigraph form of a problem's dual replaces the dual maximization by the
equivalent minimization of g + conjugate(s) under the block constraint

    [[G(s), f], [f', 2g]]  psd,

of block size n + 1, whose Schur complement encodes g >= 0.5 f'[G(s)]^+ f
together with G psd and f in range(G).  Its functions take the ``Problem``
itself.

The level-1 linearization replaces every product x_k x_l of a
box-constrained quadratic program by a fresh unknown xi_kl.  Each row is the
linearized product (a1'x + c1)(a2'x + c2) >= 0 of two nonnegative factors:
every pair of bound factors (x - lower, upper - x), and every optional extra
row a'x - b against every bound factor.  The result is a small LP over
[x | xi] whose value bounds the true minimum from below.

Neither form is solved here.  Both export to deterministic text files
(sparse block format for the PSD form, a plain row format for the LP) that
re-parse to the exact internal representation; the tests read them back and
solve the LP with HiGHS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, TooLarge, UnsupportedTerm
from .model import Problem, TermKind

RLT_MAX_ROWS = 5000
_FMT = ".17g"


# Block-PSD form ----------------------------------------------------------


def schur_block(G: np.ndarray, f: np.ndarray, g: float) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    n = G.shape[0]
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = G
    B[:n, n] = f
    B[n, :n] = f
    B[n, n] = 2.0 * g
    return B


def schur_psd_check(G, f, g: float, tol: float = 1e-8) -> bool:
    """Complement-side test of block positive semidefiniteness.

    True iff G is psd within tol, f lies in range(G) within tol, and
    2g >= f'G^+ f - tol, all scaled by 1 + the block Frobenius norm so the
    verdict matches a direct eigenvalue test of the assembled block.
    """
    G = linalg.check_symmetric(G, name="G")
    f = np.asarray(f, dtype=float).reshape(-1)
    scale = 1.0 + float(np.linalg.norm(schur_block(G, f, g), "fro"))
    decomp = linalg.eigh(G)
    if decomp.eigvals[0] < -tol * scale:
        return False
    x = linalg.apply_pinv(decomp, f)
    if float(np.linalg.norm(G @ x - f)) > tol * scale:
        return False
    return 2.0 * g >= float(f @ x) - tol * scale


# Sparse block export ------------------------------------------------------


@dataclass
class SdpaData:
    """Entries of the sparse block file: minimize c'y subject to
    sum_k y_k F_k - F_0 being block-diagonal psd."""

    m: int
    block_sizes: list
    c: list
    entries: dict  # (matno, block, i, j) -> value, 1-based, i <= j


def sdpa_data(p: Problem) -> SdpaData:
    """Explicit block data for the epigraph form.

    Quadratic conjugates (the quartic kind) are representable through a 2x2
    epigraph block; transcendental conjugates are rejected.  Variables are
    ordered: term dual coordinates, sign multipliers, quartic epigraph
    auxiliaries, then g.
    """
    quartic_idx = []
    for idx in p.dual_terms:
        t = p.terms[idx]
        if t.kind is not TermKind.QUARTIC:
            raise UnsupportedTerm(
                f"{t.kind.value} conjugate is not representable in the block format"
            )
        if t.alpha <= 0:
            raise UnsupportedTerm("epigraph encoding requires positive alpha")
        quartic_idx.append(idx)
    q = len(quartic_idx)
    nsig = p.n if p.is_sign_integer else 0
    m = q + nsig + q + 1  # varsigma, sigma, epigraph t, g
    g_var = m  # 1-based variable numbers follow

    n1 = p.n + 1
    block_sizes = [n1] + [2] * q
    ndiag = q + nsig
    if ndiag:
        block_sizes.append(-ndiag)

    c = [0.0] * q + [1.0] * nsig + [1.0] * q + [1.0]
    entries: dict = {}

    def put(mat, blk, i, j, val):
        if val != 0.0:
            entries[(mat, blk, i, j)] = float(val)

    A0 = p.plain_block
    for i in range(p.n):
        for j in range(i, p.n):
            put(0, 1, i + 1, j + 1, -A0[i, j])
        put(0, 1, i + 1, n1, -p.f[i])
    for k, idx in enumerate(quartic_idx):
        Q = p.terms[idx].Q
        for i in range(p.n):
            for j in range(i, p.n):
                put(k + 1, 1, i + 1, j + 1, Q[i, j])
    for i in range(nsig):
        put(q + i + 1, 1, i + 1, i + 1, 2.0)
    put(g_var, 1, n1, n1, 2.0)

    for k, idx in enumerate(quartic_idx):
        t = p.terms[idx]
        blk = 2 + k
        coef = 1.0 / math.sqrt(2.0 * t.alpha)
        put(k + 1, blk, 1, 1, t.beta)
        put(k + 1, blk, 1, 2, coef)
        put(q + nsig + k + 1, blk, 1, 1, 1.0)
        put(0, blk, 2, 2, -1.0)

    if ndiag:
        blk = 2 + q
        for k, idx in enumerate(quartic_idx):
            t = p.terms[idx]
            put(k + 1, blk, k + 1, k + 1, 1.0)
            put(0, blk, k + 1, k + 1, t.alpha * t.beta)
        for i in range(nsig):
            put(q + i + 1, blk, q + i + 1, q + i + 1, 1.0)

    return SdpaData(m=m, block_sizes=block_sizes, c=c, entries=entries)


def export_sdp(p: Problem, path) -> SdpaData:
    """Write the sparse block file; byte-deterministic for a given problem."""
    data = sdpa_data(p)
    lines = [
        f"{data.m}",
        f"{len(data.block_sizes)}",
        " ".join(str(int(s)) for s in data.block_sizes),
        " ".join(format(v, _FMT) for v in data.c),
    ]
    for (mat, blk, i, j), val in sorted(data.entries.items()):
        lines.append(f"{mat} {blk} {i} {j} {format(val, _FMT)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return data


# Level-1 linearization ----------------------------------------------------


def pair_index(n: int) -> list:
    return [(k, l) for k in range(n) for l in range(k, n)]


@dataclass(eq=False)
class RltProblem:
    """Linear view of the level-1 relaxation.

    Unknowns are z = [x | xi]: x (n of them), then one product surrogate per
    ordered pair k <= l in pair_index order.  Every row reads
    rows[r] @ z >= rhs[r]; the box rows are kept as explicit variable bounds.
    """

    n: int
    obj: np.ndarray  # (n_vars,)
    rows: np.ndarray  # (m, n_vars)
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def pairs(self) -> list:
        return pair_index(self.n)

    @property
    def n_vars(self) -> int:
        return self.n + len(self.pairs)

    def equals(self, other: "RltProblem") -> bool:
        return self.n == other.n and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("obj", "rows", "rhs", "lower", "upper")
        )


def _product_rows(a1: np.ndarray, c1: np.ndarray, a2: np.ndarray, c2: np.ndarray) -> tuple:
    """Linearize (a1_r'x + c1_r)(a2_r'x + c2_r) >= 0 for every r.

    Row r over [x | xi] has x coefficients c1_r a2_r + c2_r a1_r and
    right-hand side -(c1_r c2_r); each product a1_rj a2_rk goes into the
    surrogate of the pair (min(j, k), max(j, k)).
    """
    K, L = np.triu_indices(a1.shape[1])
    xi = a1[:, K] * a2[:, L]
    off = K != L
    xi[:, off] += a1[:, L[off]] * a2[:, K[off]]
    return np.hstack([c1[:, None] * a2 + c2[:, None] * a1, xi]), -(c1 * c2)


def build_rlt(Q, f, lower, upper, extra_rows: Sequence = ()) -> RltProblem:
    """Level-1 relaxation of min 0.5 x'Qx - f'x over a finite box.

    Every row is the linearized product of two nonnegative factors a'x + c.
    For each pair k <= l of bound factors (x - lower >= 0 and upper - x >= 0)
    the rows are lower-lower, upper-upper, lower-upper and, for k != l,
    upper-lower.  Each optional extra row a'x >= b follows as the factor
    a'x - b times the unit factor (the row itself), then times the lower and
    upper factor of every variable, subject to the row cap.
    """
    Q = linalg.check_symmetric(Q, name="Q")
    n = Q.shape[0]
    f = np.asarray(f, dtype=float).reshape(-1)
    lo = np.asarray(lower, dtype=float).reshape(-1)
    up = np.asarray(upper, dtype=float).reshape(-1)
    if f.shape != (n,) or lo.shape != (n,) or up.shape != (n,):
        raise DimensionMismatch("f, lower, upper must all have length n")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))) or np.any(up < lo):
        raise DimensionMismatch("box must be finite with upper >= lower")

    pairs = pair_index(n)
    obj = np.concatenate([-f, [0.5 * Q[k, k] if k == l else Q[k, l] for k, l in pairs]])

    cap = f"relaxation exceeds the {RLT_MAX_ROWS}-row cap"
    if 2 * n * n + n > RLT_MAX_ROWS:  # the bound-factor rows alone
        raise TooLarge(cap)
    # Factor i reads fa[i]'x + fc[i] >= 0: x_i - lo_i for i < n, up_i - x_i
    # at n + i, the unit factor at 2n, then one factor per extra row.
    fa = list(np.eye(n)) + list(-np.eye(n)) + [np.zeros(n)]
    fc = list(-lo) + list(up) + [1.0]
    index_pairs = []
    for k, l in pairs:
        index_pairs += [(k, l), (n + k, n + l), (k, n + l)]
        if k != l:
            index_pairs.append((n + k, l))
    for a, b in extra_rows:
        if len(index_pairs) > RLT_MAX_ROWS:
            break
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.shape != (n,):
            raise DimensionMismatch("extra row length must equal n")
        r = len(fa)
        fa.append(a)
        fc.append(-float(b))
        index_pairs.append((r, 2 * n))
        for k in range(n):
            index_pairs += [(r, k), (r, n + k)]
    if len(index_pairs) > RLT_MAX_ROWS:
        raise TooLarge(cap)

    fa, fc = np.array(fa), np.array(fc)
    first, second = np.array(index_pairs, dtype=int).reshape(-1, 2).T
    rows, rhs = _product_rows(fa[first], fc[first], fa[second], fc[second])
    return RltProblem(n=n, obj=obj, rows=rows, rhs=rhs, lower=lo, upper=up)


# LP text format ------------------------------------------------------------


def _var_names(n: int) -> list:
    names = [f"x_{i + 1}" for i in range(n)]
    names += [f"xi_{k + 1}_{l + 1}" for k, l in pair_index(n)]
    return names


def _terms_line(coeffs: np.ndarray, names: list) -> str:
    parts = [f"{format(v, _FMT)} {name}" for v, name in zip(coeffs, names) if v != 0.0]
    return " + ".join(parts) if parts else "0"


def export_rlt_lp(lp: RltProblem, path) -> None:
    """Write the relaxation rows as plain text; byte-deterministic."""
    names = _var_names(lp.n)
    lines = [f"vars {lp.n}"]
    lines.append("minimize: " + _terms_line(lp.obj, names))
    lines.append("subject:")
    for r in range(len(lp.rhs)):
        lines.append(
            f"r{r + 1}: " + _terms_line(lp.rows[r], names) + f" >= {format(float(lp.rhs[r]), _FMT)}"
        )
    lines.append("bounds:")
    for i in range(lp.n):
        lines.append(
            f"{format(float(lp.lower[i]), _FMT)} <= x_{i + 1} <= {format(float(lp.upper[i]), _FMT)}"
        )
    lines.append("end")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
