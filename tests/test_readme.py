"""The README's library snippet runs as written and does what its comments say."""

import ast
import re
from pathlib import Path

import numpy as np

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
