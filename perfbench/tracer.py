"""Outside-in layer tracer for the canondual package.

Each target is a dotted name below ``canondual``: ``module.function`` or
``module.Class.method``.  Installing the tracer replaces each target's
module (or class) attribute with a wrapper that counts calls and accumulates
self time, the wall time of the call minus the time spent in wrapped
callees.  The package calls its own functions through module attributes
(``dual.assemble_G``, ``linalg.eigh``), and a module attribute is also the
global that intra-module calls look up, so every call made after
installation is seen.  Uninstalling restores the originals.

Targets that a later version of the package deletes or renames are
reported as absent rather than raising, so the same benchmark runs on every
commit.  Nothing here runs while the benchmark times the untraced loop:
``assert_untraced`` checks that no wrapper is left on any target.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "canondual"

PUBLIC_TARGETS = (
    "integer.qip_dual_solve",
    "integer.sign_problem_solve",
    "solver.solve_dual",
    "solver.perturbed_solve",
    "solver.dual_critical_points",
    "solver.fc_sweep",
    "dual.assemble_G",
    "dual.grad_dual",
    "dual.hess_dual",
    "dual.domain_slacks",
    "dual.eval_dual",
    "dual.in_S_plus",
    "linalg.eigh",
    "linalg.check_symmetric",
    "model.conj_value",
    "model.conj_grad",
    "model.conj_hess",
    "triality.classify",
    "oracle.enumerate_signs",
    "cli.main",
)

# Private helpers that hold the barrier Newton work today.  Planned
# refactors delete or merge them; their time then falls back into the
# nearest wrapped caller (usually solver.solve_dual).
PRIVATE_TARGETS = (
    "dual.grad_G_matrices",
    "solver._phase1",
    "solver._newton_ascend",
    "solver._polish_interior",
    "solver._newton_root",
    "solver._DualSurface.derivatives",
)

TARGETS = PUBLIC_TARGETS + PRIVATE_TARGETS

# Report fields summed over every value a target returns: the Newton
# iterations of every dual solve (perturbation rounds and sweep points
# included) and the rounds of every perturbed solve.
TALLIES = {"solver.solve_dual": "iterations", "solver.perturbed_solve": "perturb_rounds"}

_MARK = "__perfbench_wrapped__"


def _resolve(name: str):
    """(owner, attribute) for a dotted target, or None when it is absent."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if not callable(getattr(owner, path[-1], None)):
        return None
    return owner, path[-1]


class Tracer:
    """Call counts and self times for a fixed set of targets."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.calls = dict.fromkeys(self.targets, 0)
        self.self_s = dict.fromkeys(self.targets, 0.0)
        self.tally = {name: 0 for name in TALLIES if name in self.targets}
        self.absent = [name for name in self.targets if _resolve(name) is None]
        self._stack = []  # wall time of wrapped callees, one entry per open call
        self._installed = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s, tally = self.calls, self.self_s, self.tally
        field = TALLIES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if field is not None:
                    tally[name] += getattr(result, field, 0)
                return result
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name in self.targets:
            found = _resolve(name)
            if found is None:
                continue
            owner, attr = found
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self) -> dict:
        """{target: {"calls", "self_s"[, "tally"]}} or the string "absent"."""
        out = {}
        for name in self.targets:
            if name in self.absent:
                out[name] = "absent"
                continue
            out[name] = {"calls": self.calls[name], "self_s": self.self_s[name]}
            if name in self.tally:
                out[name]["tally"] = self.tally[name]
        return out


def wrapped_targets(targets=TARGETS) -> list:
    """Targets whose current attribute is a tracer wrapper."""
    out = []
    for name in targets:
        found = _resolve(name)
        if found is not None and getattr(getattr(*found), _MARK, False):
            out.append(name)
    return out


def assert_untraced(targets=TARGETS) -> None:
    """Raise if any target still carries a wrapper (an untraced run must not)."""
    leftover = wrapped_targets(targets)
    if leftover:
        raise RuntimeError(f"tracer wrappers installed during an untraced run: {leftover}")
