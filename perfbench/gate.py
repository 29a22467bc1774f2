"""Correctness gate: every answer of a run is checked outside the timed intervals.

Arbiters never go through the dual solver:

* sign QPs with n <= ENUM_MAX_N are compared with exhaustive enumeration
  (``oracle.enumerate_signs``); the time of each such call is recorded;
* every other certificate is re-verified: Pi(x*) and Pi_d(sigma*) must agree
  to CERT_RTOL relative and G(sigma*) must have a positive smallest
  eigenvalue (eigenvalues from numpy, not from the package's eigensolver);
* the uniqueness sweep must place its threshold at the first grid magnitude
  above the closed-form onset WELL_FC;
* CLI reports must be byte-identical across repeats and carry the known
  answers of the README problems.

A certified answer that its arbiter contradicts is a broken guarantee and
raises ``BrokenGuarantee``.  A heuristic answer that misses the optimum is
only counted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from canondual import dual, model, oracle

import instances

ENUM_MAX_N = 20
CERT_RTOL = 1e-7
OPT_RTOL = 1e-9

# Documented exit codes of `canon-dual solve` and the path each one means;
# 1 (input error) and 3 (solver failure) count as errors.
CLI_PATHS = {0: "certified", 2: "perturbation", 1: "failed", 3: "failed"}


class BrokenGuarantee(Exception):
    """A certified answer that its arbiter contradicts."""


@dataclass
class Verdict:
    path: str                       # certified | perturbation | failed | sweep
    optimal: Optional[bool] = None  # None: the arbiter cannot decide
    wrong: Optional[str] = None     # an incorrect output that carries no certificate


@dataclass
class Gate:
    """The arbiters; keeps each oracle call's wall time and the first CLI
    stdout of each input, which later repeats must match byte for byte."""

    oracle_ms: list = field(default_factory=list)
    cli_stdout: dict = field(default_factory=dict)

    # sign QPs ---------------------------------------------------------------

    def qip(self, inst, rep) -> Verdict:
        path = {"dual_certified": "certified", "perturbation_only": "perturbation"}.get(
            rep.certificate, "failed")
        x = np.asarray(rep.x_star, dtype=float)
        if x.shape != (inst.n,) or not np.all(np.abs(x) == 1.0):
            if path == "certified":
                raise BrokenGuarantee(f"certified answer is not a sign vector: {x}")
            return Verdict("failed", optimal=False)
        value = 0.5 * float(x @ inst.Q @ x) - float(inst.f @ x)
        if inst.n <= ENUM_MAX_N:
            start = time.perf_counter()
            best = oracle.enumerate_signs(inst).best_value
            self.oracle_ms.append((time.perf_counter() - start) * 1e3)
            optimal = value <= best + OPT_RTOL * (1.0 + abs(best))
            if path == "certified" and not optimal:
                raise BrokenGuarantee(
                    f"n={inst.n}: certified objective {value!r} above the enumerated optimum {best!r}")
            return Verdict(path, optimal=optimal)
        if path != "certified":
            return Verdict(path)
        sigma = np.asarray(rep.sigma_star, dtype=float)
        G = inst.Q + 2.0 * np.diag(sigma)
        min_eig = float(np.linalg.eigvalsh(G)[0])
        dual_value = -0.5 * float(inst.f @ np.linalg.solve(G, inst.f)) - float(np.sum(sigma))
        _require_certificate(f"sign QP n={inst.n}", value, dual_value, min_eig)
        return Verdict(path, optimal=True)

    # continuous solves and the sweep ------------------------------------------

    def continuous(self, p, rep) -> Verdict:
        if rep.status != "interior" or rep.triality_class != "global_min":
            # uncertified (boundary) answers are the ones the CLI hands to the
            # heuristic exit code and `--perturb` to the perturbation rounds
            return Verdict("perturbation")
        x = np.asarray(rep.x_bar, dtype=float)
        s = np.asarray(rep.sigma_bar, dtype=float)
        min_eig = float(np.linalg.eigvalsh(dual.assemble_G(p, s).G)[0])
        _require_certificate(f"continuous n={p.n}", model.eval_primal(p, x),
                             dual.eval_dual(p, s), min_eig)
        return Verdict("certified", optimal=True)

    def sweep(self, result) -> Verdict:
        expected = instances.expected_sweep_threshold()
        if result.threshold != expected:
            return Verdict("sweep", wrong=f"sweep threshold {result.threshold!r}, expected {expected!r}")
        return Verdict("sweep", optimal=True)

    # CLI processes ------------------------------------------------------------

    def cli(self, name: str, returncode: int, stdout: bytes) -> Verdict:
        path = CLI_PATHS.get(returncode)
        if path is None:
            return Verdict("failed", wrong=f"{name}: undocumented exit code {returncode}")
        first = self.cli_stdout.setdefault(name, stdout)
        if stdout != first:
            return Verdict(path, wrong=f"{name}: stdout differs between repeats")
        try:
            report = json.loads(stdout)["payload"]["report"]
            x = report["x_star"] if name == "qip" else report["x_bar"]
        except (ValueError, KeyError, TypeError):
            return Verdict("failed", wrong=f"{name}: stdout is not a solve report")
        expected = list(instances.README_QIP_X) if name == "qip" else [instances.WELL_X1]
        optimal = x == expected
        if path == "certified" and not optimal:
            raise BrokenGuarantee(f"{name}: certified x = {x}, expected {expected}")
        return Verdict(path, optimal=optimal)


def _require_certificate(what: str, primal: float, dual_value: float, min_eig: float) -> None:
    if not (min_eig > 0.0 and abs(primal - dual_value) <= CERT_RTOL * (1.0 + abs(primal))):
        raise BrokenGuarantee(
            f"{what}: certificate fails re-verification (Pi {primal!r}, Pi_d {dual_value!r}, "
            f"min eig G {min_eig!r})")
