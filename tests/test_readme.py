"""The README's library snippet runs as written and does what its comments
say, and every name the README or the package exports resolves."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import canondual
from canondual.triality import TrialityLabel

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_snippet() -> dict:
    """Execute the README's fenced python block statement by statement and
    return the value of each bare call, keyed by the name it calls."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            name = ast.unparse(node.value.func).rsplit(".", 1)[-1]
            values[name] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_readme_library_snippet():
    values = _run_snippet()
    assert values["classify"].label is TrialityLabel.GLOBAL_MIN
    qip = values["qip_dual_solve"]
    assert qip.certificate == "dual_certified"
    assert np.array_equal(qip.x_star, [1.0, -1.0])
    exact = values["enumerate_signs"]
    assert np.array_equal(exact.best_x, qip.x_star)
    assert exact.best_value == qip.objective == -4.0


def test_documented_names_resolve():
    missing = [name for name in canondual.__all__ if not hasattr(canondual, name)]
    # `module.name` in the README's prose, for the package's own modules
    cited = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", README.read_text())
             if isinstance(getattr(canondual, mod, None), ModuleType)}
    assert {("solver", "fc_sweep"), ("solver", "existence_check"),
            ("relaxations", "sdpa_data"), ("relaxations", "build_rlt")} <= cited
    missing += [f"{mod}.{name}" for mod, name in sorted(cited)
                if not hasattr(getattr(canondual, mod), name)]
    assert missing == []


def test_oracle_and_relaxations_resolve_through_the_package():
    # both load on first use (tests/test_cli.py checks that a solve loads neither)
    from canondual import OracleResult, enumerate_signs, grid_multistart, oracle

    assert (OracleResult, enumerate_signs, grid_multistart) == (
        oracle.OracleResult, oracle.enumerate_signs, oracle.grid_multistart)
    assert canondual.relaxations is importlib.import_module("canondual.relaxations")
    lazy = {"oracle", "relaxations", "OracleResult", "enumerate_signs", "grid_multistart"}
    assert lazy <= set(dir(canondual))
    with pytest.raises(AttributeError, match="no_such_name"):
        canondual.no_such_name
