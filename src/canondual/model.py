"""Problem representation: canonical terms, primal objective, JSON format.

A problem is a sum of canonical terms over quadratic measures plus a linear
input.  Each term owns a factored operator D (so Q = D'D is positive
semidefinite by construction), a coefficient ``alpha`` and, for the quartic
kind, an offset ``beta``.  Writing xi for the quadratic measure of a point x,

    plain_quadratic:  xi = 0.5 * alpha * x'Qx      contributes  xi
    quartic:          xi = 0.5 * x'Qx              contributes  0.5*alpha*(xi+beta)^2
    exponential:      xi = 0.5 * x'Qx              contributes  alpha*exp(xi)
    xlogx:            xi = 0.5 * x'Qx              contributes  alpha*xi*log(xi)

and the objective is  Pi(x) = sum_s Phi_s(xi_s) - x'f,  minimized over R^n or
over sign vectors {-1,+1}^n depending on ``variables``.

Each non-plain kind carries a scalar dual coordinate ``sigma`` linked to xi by
the bijective map sigma = Phi'(xi).  The Legendre conjugates implemented here
are exact, meaning Phi(xi) + Phi*(sigma) = xi*sigma holds identically on the
duality graph (checked to 1e-9 by the conjugate test suite):

    quartic:      sigma = alpha*(xi+beta)      Phi* = sigma^2/(2 alpha) - beta*sigma
    exponential:  sigma = alpha*exp(xi)        Phi* = sigma*(log(sigma/alpha) - 1)
    xlogx:        sigma = alpha*(log(xi)+1)    Phi* = alpha*exp(sigma/alpha - 1)

The quartic well with height parameter lam is encoded as beta = -lam.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainViolation, NonFinite, SchemaError

# Closed-boundary slack allowance for evaluation; barrier solvers stay strictly inside.
EVAL_EDGE_TOL = 1e-12


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class TermKind(str, Enum):
    PLAIN_QUADRATIC = "plain_quadratic"
    QUARTIC = "quartic"
    EXPONENTIAL = "exponential"
    XLOGX = "xlogx"


class Variables(str, Enum):
    CONTINUOUS = "continuous"
    SIGN_INTEGER = "sign_integer"


@dataclass(eq=False)
class CanonicalTerm:
    """One summand of the internal energy; immutable after construction."""

    kind: TermKind
    factor: np.ndarray  # shape (m, n); Q = factor' factor
    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        self.factor = np.atleast_2d(np.asarray(self.factor, dtype=float))
        if self.factor.shape[0] == 0:
            raise DimensionMismatch("factor has no rows")
        if not np.all(np.isfinite(self.factor)):
            raise DimensionMismatch("factor has non-finite entries")
        if not math.isfinite(self.alpha) or self.alpha == 0.0:
            raise DomainViolation("alpha must be finite and nonzero")
        if not math.isfinite(self.beta):
            raise DomainViolation("beta must be finite")
        if self.kind is not TermKind.QUARTIC and self.beta != 0.0:
            raise DomainViolation(f"beta is only meaningful for quartic terms, got {self.beta}")
        if self.kind is TermKind.EXPONENTIAL and self.alpha < 0.0:
            warnings.warn(
                "exponential term with negative alpha: dual domain is taken as "
                "sigma/alpha > 0, mirroring the positive case",
                stacklevel=2,
            )
        self.factor.setflags(write=False)

    @property
    def n(self) -> int:
        return self.factor.shape[1]

    @cached_property
    def Q(self) -> np.ndarray:
        Q = self.factor.T @ self.factor
        Q.setflags(write=False)
        return Q

    @property
    def has_dual(self) -> bool:
        return self.kind is not TermKind.PLAIN_QUADRATIC

    # quadratic measure -------------------------------------------------

    def xi(self, x: np.ndarray) -> float:
        v = self.factor @ x
        val = 0.5 * float(v @ v)
        return self.alpha * val if self.kind is TermKind.PLAIN_QUADRATIC else val

    def xi_batch(self, X: np.ndarray) -> np.ndarray:
        V = X @ self.factor.T
        vals = 0.5 * np.einsum("ij,ij->i", V, V)
        return self.alpha * vals if self.kind is TermKind.PLAIN_QUADRATIC else vals

    # canonical function Phi and derivatives in xi ----------------------

    def phi(self, xi: float) -> float:
        if self.kind is TermKind.PLAIN_QUADRATIC:
            return xi
        if self.kind is TermKind.QUARTIC:
            return 0.5 * self.alpha * (xi + self.beta) ** 2
        if self.kind is TermKind.EXPONENTIAL:
            return self.alpha * _exp(xi)
        if xi < 0.0:
            raise DomainViolation("xlogx measure must be nonnegative")
        return 0.0 if xi == 0.0 else self.alpha * xi * math.log(xi)

    def phi_batch(self, xi: np.ndarray) -> np.ndarray:
        if self.kind is TermKind.PLAIN_QUADRATIC:
            return xi
        if self.kind is TermKind.QUARTIC:
            return 0.5 * self.alpha * (xi + self.beta) ** 2
        if self.kind is TermKind.EXPONENTIAL:
            with np.errstate(over="ignore"):
                return self.alpha * np.exp(xi)
        safe = np.where(xi > 0.0, xi, 1.0)
        return np.where(xi > 0.0, self.alpha * xi * np.log(safe), 0.0)

    def phi_grad(self, xi: float) -> float:
        """Duality map sigma = Phi'(xi); the plain kind has constant slope 1."""
        if self.kind is TermKind.PLAIN_QUADRATIC:
            return 1.0
        if self.kind is TermKind.QUARTIC:
            return self.alpha * (xi + self.beta)
        if self.kind is TermKind.EXPONENTIAL:
            return self.alpha * _exp(xi)
        if xi <= 0.0:
            raise DomainViolation("xlogx derivative undefined at xi <= 0")
        return self.alpha * (math.log(xi) + 1.0)

    def phi_hess(self, xi: float) -> float:
        if self.kind is TermKind.PLAIN_QUADRATIC:
            return 0.0
        if self.kind is TermKind.QUARTIC:
            return self.alpha
        if self.kind is TermKind.EXPONENTIAL:
            return self.alpha * _exp(xi)
        if xi <= 0.0:
            raise DomainViolation("xlogx curvature undefined at xi <= 0")
        return self.alpha / xi


@dataclass(eq=False)
class Problem:
    n: int
    terms: tuple
    f: np.ndarray
    variables: Variables = Variables.CONTINUOUS

    def __post_init__(self):
        self.terms = tuple(self.terms)
        if not self.terms:
            raise DimensionMismatch("problem needs at least one term")
        self.f = np.asarray(self.f, dtype=float).reshape(-1)
        if self.f.shape != (self.n,):
            raise DimensionMismatch(f"f has length {len(self.f)}, expected {self.n}")
        if not np.all(np.isfinite(self.f)):
            raise DimensionMismatch("f has non-finite entries")
        for i, t in enumerate(self.terms):
            if t.n != self.n:
                raise DimensionMismatch(f"terms[{i}] factor has {t.n} columns, expected {self.n}")
        self.variables = Variables(self.variables)
        self.f.setflags(write=False)

    @property
    def is_sign_integer(self) -> bool:
        return self.variables is Variables.SIGN_INTEGER

    @cached_property
    def dual_terms(self) -> tuple:
        """Indices of terms that carry a dual coordinate."""
        return tuple(i for i, t in enumerate(self.terms) if t.has_dual)

    @property
    def dual_dim(self) -> int:
        return len(self.dual_terms) + (self.n if self.is_sign_integer else 0)

    @cached_property
    def plain_block(self) -> np.ndarray:
        """Constant operator contribution of the plain quadratic terms."""
        A = np.zeros((self.n, self.n))
        for t in self.terms:
            if not t.has_dual:
                A += t.alpha * t.Q
        A.setflags(write=False)
        return A

    @cached_property
    def f_scale(self) -> float:
        """1 + |f|, the scale of the solver's and the classifier's tolerances."""
        return 1.0 + float(np.linalg.norm(self.f))

    @cached_property
    def coordinate_rows(self) -> "CoordinateRows":
        """How each dual coordinate enters the operator and where its domain
        ends (see CoordinateRows)."""
        n_sign = self.n if self.is_sign_integer else 0
        terms = [self.terms[i] for i in self.dual_terms]
        blocks = [t.factor.T for t in terms] + [np.eye(self.n)[:, :n_sign]]
        sizes = [b.shape[1] for b in blocks[:-1]] + [1] * n_sign
        weights = np.array([1.0] * len(terms) + [2.0] * n_sign)
        alpha = np.array([t.alpha for t in terms] + [1.0] * n_sign)
        beta = np.array([t.beta for t in terms] + [0.0] * n_sign)
        bounded = np.array([t.kind is not TermKind.XLOGX for t in terms] + [True] * n_sign,
                           dtype=bool)
        strict = np.array([t.kind is TermKind.EXPONENTIAL for t in terms] + [False] * n_sign,
                          dtype=bool)
        return CoordinateRows(np.hstack(blocks), np.cumsum([0] + sizes)[:-1], weights,
                              alpha, beta, bounded, strict)


class SlackColumns(NamedTuple):
    """|alpha|, alpha, beta, direction and strict on the bounded coordinates."""

    scale: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    direction: np.ndarray
    strict: np.ndarray


@dataclass(frozen=True)
class CoordinateRows:
    """One row of the table per dual coordinate: how it enters G and where
    its domain ends.

    G(s) = plain_block + sum_c s_c w_c B_c'B_c, one block of rows per
    coordinate.  ``Bt`` is B' = [D_1' ... D_q' | I_n], the identity only for
    sign-integer problems; ``starts`` holds the first column of each block
    and ``weights`` w is 1 per dual term and 2 per sign multiplier.

    The dual domain is one bound per coordinate, s/alpha >= beta: the
    closure of the duality-map range for a quartic term, s/alpha > 0 for an
    exponential term (beta = 0) and s >= 0 for a sign multiplier (alpha = 1,
    beta = 0).  An xlogx coordinate is not ``bounded``; an exponential one
    is ``strict``: its bound excludes the edge, where the conjugate is
    undefined.  On the bounded coordinates (``index``) the slack
    |alpha| (s/alpha - beta) is positive inside, grows along ``direction``
    |alpha|/alpha and is zero at ``edge`` alpha beta.
    """

    Bt: np.ndarray
    starts: np.ndarray
    weights: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    bounded: np.ndarray
    strict: np.ndarray

    @cached_property
    def index(self) -> np.ndarray:
        return np.flatnonzero(self.bounded)

    @cached_property
    def slack_columns(self) -> "SlackColumns":
        """The columns of the bounded coordinates (``index``) that every
        slack and domain test reads."""
        i = self.index
        return SlackColumns(np.abs(self.alpha[i]), self.alpha[i], self.beta[i],
                            self.direction[i], self.strict[i])

    @cached_property
    def direction(self) -> np.ndarray:
        return np.abs(self.alpha) / self.alpha

    @cached_property
    def edge(self) -> np.ndarray:
        return self.alpha * self.beta

    def block_sum(self, a: np.ndarray, axis: int = 0) -> np.ndarray:
        """Sums of ``a`` over each block along ``axis``."""
        if len(self.starts) == self.Bt.shape[1]:  # one column per block
            return a
        return np.add.reduceat(a, self.starts, axis=axis)


def eval_primal(p: Problem, x) -> float:
    x = _as_point(p, x)
    total = -float(x @ p.f)
    for t in p.terms:
        total += t.phi(t.xi(x))
    if not math.isfinite(total):
        raise NonFinite("primal objective overflowed")
    return total


def eval_primal_batch(p: Problem, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    vals = -X @ p.f
    for t in p.terms:
        vals = vals + t.phi_batch(t.xi_batch(X))
    return vals


def primal_gradient(p: Problem, dtype=np.float64):
    """The analytic gradient sum_s Phi'_s(xi_s) Q_s x - f (alpha folded for
    plain terms) as a function of x, with f and every factor converted to
    dtype once.  With ``dtype=np.longdouble`` the products, xi and the
    quartic Phi' are formed in extended precision; the exponential and
    xlogx Phi' round through double.
    """
    minus_f = -p.f.astype(dtype)
    factors = [t.factor.astype(dtype, copy=False) for t in p.terms]

    def grad(x) -> np.ndarray:
        x = _as_point(p, x).astype(dtype, copy=False)
        g = minus_f
        for t, D in zip(p.terms, factors):
            v = D @ x
            w = t.alpha if t.kind is TermKind.PLAIN_QUADRATIC else t.phi_grad(0.5 * (v @ v))
            g = g + w * (D.T @ v)
        return g
    return grad


def dual_map(p: Problem, x) -> np.ndarray:
    """Term-block dual coordinates induced by a primal point, sigma_s = Phi'(xi_s)."""
    x = _as_point(p, x)
    return np.array([p.terms[i].phi_grad(p.terms[i].xi(x)) for i in p.dual_terms])


def _as_point(p: Problem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (p.n,):
        raise DimensionMismatch(f"point has length {len(x)}, expected {p.n}")
    return x


# Legendre conjugates ----------------------------------------------------


def conj_value(t: CanonicalTerm, sigma: float) -> float:
    """Legendre conjugate Phi*(sigma); raises outside the dual domain."""
    if t.kind is TermKind.QUARTIC:
        slack = abs(t.alpha) * (sigma / t.alpha - t.beta)
        if slack < -EVAL_EDGE_TOL * (1.0 + abs(sigma)):
            raise DomainViolation(f"quartic dual value {sigma} below boundary")
        return sigma * sigma / (2.0 * t.alpha) - t.beta * sigma
    if t.kind is TermKind.EXPONENTIAL:
        ratio = sigma / t.alpha
        if ratio <= 0.0:
            raise DomainViolation(f"exponential dual value {sigma} outside sigma/alpha > 0")
        return sigma * (math.log(ratio) - 1.0)
    if t.kind is TermKind.XLOGX:
        return t.alpha * _exp(sigma / t.alpha - 1.0)
    raise DomainViolation("plain quadratic terms carry no dual coordinate")


def conj_grad(t: CanonicalTerm, sigma: float) -> float:
    """Inverse duality map xi = dPhi*/dsigma."""
    if t.kind is TermKind.QUARTIC:
        return sigma / t.alpha - t.beta
    if t.kind is TermKind.EXPONENTIAL:
        ratio = sigma / t.alpha
        if ratio <= 0.0:
            raise DomainViolation(f"exponential dual value {sigma} outside sigma/alpha > 0")
        return math.log(ratio)
    if t.kind is TermKind.XLOGX:
        return _exp(sigma / t.alpha - 1.0)
    raise DomainViolation("plain quadratic terms carry no dual coordinate")


def conj_hess(t: CanonicalTerm, sigma: float) -> float:
    if t.kind is TermKind.QUARTIC:
        return 1.0 / t.alpha
    if t.kind is TermKind.EXPONENTIAL:
        if sigma / t.alpha <= 0.0:
            raise DomainViolation(f"exponential dual value {sigma} outside sigma/alpha > 0")
        return 1.0 / sigma
    if t.kind is TermKind.XLOGX:
        return _exp(sigma / t.alpha - 1.0) / t.alpha
    raise DomainViolation("plain quadratic terms carry no dual coordinate")


# JSON problem format ----------------------------------------------------


def load_problem(text) -> Problem:
    """Parse and validate the JSON problem document.

    Accepts JSON text (str or bytes) or an already-decoded value.  Unknown
    fields are rejected; numbers are parsed as IEEE-754 doubles.  The
    document's structure is checked here, its shapes by ``Problem``.
    """
    doc = _object(_decode(text), "$", {"n", "variables", "f", "terms"})
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("$.n", "must be a positive integer")
    try:
        variables = Variables(doc["variables"])
    except ValueError:
        raise SchemaError("$.variables", "must be 'continuous' or 'sign_integer'") from None
    f = _numbers(doc["f"], "$.f")
    if not isinstance(doc["terms"], list):
        raise SchemaError("$.terms", "must be an array")
    terms = [_term(td, f"$.terms[{i}]") for i, td in enumerate(doc["terms"])]
    return Problem(n=n, terms=terms, f=f, variables=variables)


def _term(td, path: str) -> CanonicalTerm:
    td = _object(td, path, {"kind", "alpha", "factor"}, optional={"beta"})
    try:
        kind = TermKind(td["kind"])
    except ValueError:
        raise SchemaError(f"{path}.kind", f"unknown kind {td['kind']!r}") from None
    try:
        return CanonicalTerm(kind=kind, factor=_rows(td["factor"], f"{path}.factor"),
                             alpha=_number(td["alpha"], f"{path}.alpha"),
                             beta=_number(td.get("beta", 0.0), f"{path}.beta"))
    except DomainViolation as exc:
        raise SchemaError(path, str(exc)) from None


def _decode(text):
    """JSON text (str or bytes) decoded; any other value is taken as decoded."""
    if not isinstance(text, (str, bytes)):
        return text
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, not Unicode, nested too deep
        raise SchemaError("$", f"invalid JSON: {exc}") from None


def _object(v, path: str, required: set, optional: set = frozenset()) -> dict:
    """``v`` as an object with every ``required`` field and no field outside
    ``required`` and ``optional``."""
    if not isinstance(v, dict):
        raise SchemaError(path, "must be a JSON object")
    unknown = set(v) - required - optional
    if unknown:
        raise SchemaError(path, f"unknown fields {sorted(unknown)}")
    missing = required - set(v)
    if missing:
        raise SchemaError(path, f"missing fields {sorted(missing)}")
    return v


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, "must be a number")
    try:
        return float(v)
    except OverflowError:  # an integer past the double range
        raise SchemaError(path, "must be within the double range") from None


def _numbers(v, path: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(path, "must be an array of numbers")
    return [_number(item, f"{path}[{i}]") for i, item in enumerate(v)]


def _rows(v, path: str) -> np.ndarray:
    """``v`` as a matrix: a non-empty array of number rows of one length."""
    if not isinstance(v, list) or not v:
        raise SchemaError(path, "must be a non-empty array of rows")
    rows = [_numbers(row, f"{path}[{r}]") for r, row in enumerate(v)]
    if len({len(row) for row in rows}) != 1:
        raise SchemaError(path, "rows have inconsistent lengths")
    return np.array(rows)
