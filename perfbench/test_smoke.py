"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit
by both run modes of every workload, that the gate rejects planted wrong
answers, that the tracer tolerates absent targets, that times are scaled
by the reference kernel, and that the benchmark refuses to run without the
package sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import instances  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from canondual import integer, solver  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "QIP_CERTIFIED_SIZES", (4, 6))
    monkeypatch.setattr(workloads, "QIP_SYMMETRIC_SIZES", (3,))
    monkeypatch.setattr(workloads, "CONTINUOUS_SIZES", (3,))
    monkeypatch.setattr(workloads, "CONTINUOUS_PASSES_PER_SWEEP", 1)
    monkeypatch.setattr(workloads, "TRACE_CYCLES", dict.fromkeys(run.WORKLOADS, 1))
    monkeypatch.setattr(instances, "SWEEP_GRID", (1.0, 2.0))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == run.per_layer_units()


def _check(metrics, expected):
    assert set(metrics) == set(expected)
    for name, m in metrics.items():
        assert m["unit"] == expected[name], name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, workload):
    env = run.child_env(os.environ)
    report, metrics, attempted, result = run.measure(workload, 1, 0.2, env, str(tmp_path / "m"))
    _check(metrics, _units(SPEC["end_to_end"]))
    assert set(report["metrics"]) == set(run.END_TO_END) | set(run.REPORT_ONLY)
    assert attempted >= 1 and result["failed"] == 0 and not result["wrong"]

    report, metrics, attempted, result = run.trace(workload, 1, 0.2, env, env,
                                                   str(tmp_path / "t"))
    _check(metrics, _units(SPEC["per_layer"]))
    assert report["absent"] == []
    assert result["failed"] == 0 and not result["wrong"]
    tracer.assert_untraced()


def _certified_qip(n):
    rng = np.random.default_rng(n)
    inst = instances.sign_qp(rng, n, symmetric=False)
    rep = integer.qip_dual_solve(inst)
    assert rep.certificate == "dual_certified"
    return inst, rep


@pytest.mark.parametrize("n", [5, 22])  # enumeration arbiter, then re-verification
def test_gate_rejects_a_flipped_sign_vector(n):
    inst, rep = _certified_qip(n)
    assert gate.Gate().qip(inst, rep).optimal
    rep.x_star = rep.x_star.copy()
    rep.x_star[0] = -rep.x_star[0]
    with pytest.raises(gate.BrokenGuarantee):
        gate.Gate().qip(inst, rep)


def test_gate_rejects_a_wrong_continuous_certificate():
    p = instances.double_well(0.5)
    rep = solver.solve_dual(p)
    assert gate.Gate().continuous(p, rep).path == "certified"
    rep.x_bar = -rep.x_bar
    with pytest.raises(gate.BrokenGuarantee):
        gate.Gate().continuous(p, rep)


def test_gate_flags_wrong_sweeps_and_cli_reports():
    wrong = solver.FcSweepResult(rows=[], threshold=instances.SWEEP_GRID[0])
    assert gate.Gate().sweep(wrong).wrong

    body = {"payload": {"report": {"x_star": [1.0, -1.0]}}}
    g = gate.Gate()
    assert g.cli("qip", 0, json.dumps(body).encode()).optimal
    assert g.cli("qip", 0, json.dumps(body).encode() + b" ").wrong  # not byte-identical
    flipped = {"payload": {"report": {"x_star": [-1.0, 1.0]}}}
    with pytest.raises(gate.BrokenGuarantee):
        gate.Gate().cli("qip", 0, json.dumps(flipped).encode())
    assert gate.Gate().cli("qip", 7, b"").path == "failed"


def test_tracer_reports_absent_targets_and_restores_originals():
    tr = tracer.Tracer(("dual.no_such_function", "solver._NoSuchClass.method", "linalg.eigh"))
    assert tr.absent == ["dual.no_such_function", "solver._NoSuchClass.method"]
    with tr:
        assert tracer.wrapped_targets() == ["linalg.eigh"]
        with pytest.raises(RuntimeError):
            tracer.assert_untraced()
        integer.qip_dual_solve(instances.tiny_qip())
    tracer.assert_untraced()
    stats = tr.stats()
    assert stats["dual.no_such_function"] == "absent"
    assert stats["linalg.eigh"]["calls"] > 0 and stats["linalg.eigh"]["self_s"] > 0


def test_tail_keeps_ten_samples_above():
    assert run.tail(list(range(1, 21))) == (10, 50.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_scaling_divides_by_the_kernel_time_around_each_op():
    nominal = reference.NOMINAL_S
    # a host at half speed: ops and kernel both take twice as long
    assert reference.scaled([0.2, 0.4], [2 * nominal] * 2) == pytest.approx([0.1, 0.2])
    # one slow kernel timing is outvoted by its neighbours
    refs = [nominal] * 11
    refs[5] = 50 * nominal
    assert reference.scaled([0.1] * 11, refs)[5] == pytest.approx(0.1)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "cli", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
