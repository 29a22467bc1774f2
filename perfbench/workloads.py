"""The four closed-loop workloads: one client, no think time.

A workload is an endless, seeded sequence of operations (``Op``).  The
closed loop runs them one after another until they have used up the
measuring time; the gate checks every answer outside the timed intervals.

Every call into canondual goes through a module attribute
(``integer.qip_dual_solve``, not a name imported from the package root),
so the outside-in tracer sees the benchmark's own calls too.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from canondual import integer, solver

import instances
import reference
from gate import Gate, Verdict

HERE = os.path.dirname(os.path.abspath(__file__))

QIP_CERTIFIED_SIZES = (16,)
QIP_SYMMETRIC_SIZES = (8,)
CONTINUOUS_SIZES = (16, 32, 64, 64)
CONTINUOUS_PASSES_PER_SWEEP = 12
CLI_INPUTS = ("qip", "well")

# Cycles of each workload that make up the fixed set a traced pass repeats.
TRACE_CYCLES = {"qip-certified": 6, "qip-symmetric": 4, "continuous": 1, "cli": 1}

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str        # qip | continuous | sweep | cli
    n: int
    payload: object  # QipInstance, Problem, or the CLI input name


@dataclass
class Record:
    op: Op
    wall_s: float
    result: object = None
    error: Optional[str] = None
    verdict: Optional[Verdict] = None
    ref_s: Optional[float] = None  # reference kernel seconds, timed right before the op

    @property
    def is_solve(self) -> bool:
        return self.op.kind != "sweep"


@dataclass
class CliResult:
    returncode: int
    stdout: bytes


def cycles(workload: str, seed: int):
    """Endless iterator of cycles (lists of ops) for one workload."""
    rng = instances.stream(seed, workload)
    if workload in ("qip-certified", "qip-symmetric"):
        symmetric = workload == "qip-symmetric"
        sizes = QIP_SYMMETRIC_SIZES if symmetric else QIP_CERTIFIED_SIZES
        while True:
            yield [Op("qip", n, instances.sign_qp(rng, n, symmetric)) for n in sizes]
    elif workload == "continuous":
        while True:
            ops = [Op("continuous", n, instances.continuous_problem(rng, n))
                   for _ in range(CONTINUOUS_PASSES_PER_SWEEP) for n in CONTINUOUS_SIZES]
            yield ops + [Op("sweep", 1, None)]
    elif workload == "cli":
        while True:
            yield [Op("cli", 2 if name == "qip" else 1, name) for name in CLI_INPUTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def trace_set(workload: str, seed: int) -> list:
    """The first TRACE_CYCLES cycles, the fixed op list a traced pass runs."""
    return [op for cycle in itertools.islice(cycles(workload, seed), TRACE_CYCLES[workload])
            for op in cycle]


class Runner:
    """Executes ops; CLI ops run as child processes with ``env``.

    With ``trace_dir``, each CLI process runs under the tracer and writes
    its stats to a file there; ``cli_traces`` lists those files.
    """

    def __init__(self, workdir: str, env: Optional[dict], trace_dir: Optional[str] = None):
        self.env = env
        self.files = {}
        self.trace_dir = trace_dir
        self.cli_traces = []
        os.makedirs(workdir, exist_ok=True)
        for name, doc in (("qip", instances.README_QIP), ("well", instances.README_WELL)):
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.files[name] = path

    def run(self, op: Op):
        if op.kind == "qip":
            return integer.qip_dual_solve(op.payload)
        if op.kind == "continuous":
            return solver.solve_dual(op.payload)
        if op.kind == "sweep":
            return solver.fc_sweep(instances.double_well(1.0), [1.0], instances.SWEEP_GRID,
                                   threads=1)
        return self._cli(op.payload)

    def _cli(self, name: str) -> CliResult:
        argv = ["solve", self.files[name]]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "canondual"] + argv
        else:
            out = os.path.join(self.trace_dir, f"trace-{len(self.cli_traces)}.json")
            self.cli_traces.append(out)
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", out] + argv
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S, check=False)
        return CliResult(proc.returncode, proc.stdout)

    def warm_up(self, workload: str) -> None:
        """Pay lazy imports and first-call costs before anything is timed."""
        if workload == "cli":
            self._cli("qip")
        elif workload == "continuous":
            solver.solve_dual(instances.tiny_well())
        else:
            integer.qip_dual_solve(instances.tiny_qip())


def timed(runner: Runner, op: Op) -> Record:
    start = time.perf_counter()
    try:
        result = runner.run(op)
    except Exception as exc:  # a raising solve is a counted error, not a crash
        return Record(op, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Record(op, time.perf_counter() - start, result=result)


def closed_loop(runner: Runner, stream, seconds: float, gate: Gate) -> list:
    """Run whole cycles of ops back to back until ``seconds`` of wall time
    have passed, so that every run holds the ops of a cycle in the same
    proportion.

    The reference kernel is timed right before each op.  Each answer is
    judged right after its op, outside the op's timed interval, and then
    dropped, so that the process's peak memory is the program's and not a
    backlog of kept instances.
    """
    records = []
    start = time.perf_counter()
    for cycle in stream:
        for op in cycle:
            ref = reference.timed_kernel()
            rec = timed(runner, op)
            rec.ref_s = ref
            judge(gate, [rec])
            rec.op.payload = rec.result = None
            records.append(rec)
        if time.perf_counter() - start >= seconds:
            return records


def repeat_passes(runner: Runner, traced_runner: Runner, ops: list, seconds: float,
                  traced) -> tuple:
    """Run the fixed op list at least once and until ``seconds`` have passed.

    Each pass runs twice, untraced on ``runner`` and then on
    ``traced_runner`` inside the ``traced`` context (a tracer), so that the
    machine's drift falls on both alike.  Returns (untraced records, traced
    records, number of passes).
    """
    plain, traced_records = [], []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain.extend(timed(runner, op) for op in ops)
        with traced:
            traced_records.extend(timed(traced_runner, op) for op in ops)
        passes += 1
    return plain, traced_records, passes


def judge(gate: Gate, records: list) -> None:
    """Attach a verdict to every record (raises BrokenGuarantee)."""
    for rec in records:
        if rec.error is not None:
            rec.verdict = Verdict("failed")
        elif rec.op.kind == "qip":
            rec.verdict = gate.qip(rec.op.payload, rec.result)
        elif rec.op.kind == "continuous":
            rec.verdict = gate.continuous(rec.op.payload, rec.result)
        elif rec.op.kind == "sweep":
            rec.verdict = gate.sweep(rec.result)
        else:
            rec.verdict = gate.cli(rec.op.payload, rec.result.returncode, rec.result.stdout)
