#!/usr/bin/env python3
"""Benchmark of canondual: four closed-loop workloads, one client each, no think time.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: qip-certified, qip-symmetric, continuous, cli (see
perfbench/NOTES.md).  Run from the root of a source checkout; the package
is imported from ./src.

``--trace 0`` times the untraced loop for S seconds, checks every answer,
and reports the end-to-end metrics, with each time scaled to the speed of
the reference kernel timed beside it (reference.py).  ``--trace 1`` is the
separate traced run: it times a fixed op list untraced and then traced,
and reports the per-layer metrics.  The last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the full report: every metric with its unit, the raw wall times,
the path shares and the machine facts.  ``--workload all`` runs both modes
of every workload in fresh processes, prints a table of every metric, and
ends with one JSON line that holds every report and result.

Exit codes: 0 done, 2 no package sources or bad arguments, 3 a certified
answer contradicted by its arbiter.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("qip-certified", "qip-symmetric", "continuous", "cli")
IN_PROCESS = WORKLOADS[:3]
SETUP_FAMILY = {"qip-certified": "qip", "qip-symmetric": "qip", "continuous": "continuous",
                "cli": "cli"}
# In-process workloads pin BLAS to one thread before numpy loads; the CLI
# workload and the blas_default probe keep the caller's environment.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
# Set-up time drifts with the speed of process start and import, not with
# the numpy kernel, so each set-up child is scaled by a reference child
# that starts Python and imports numpy; NOMINAL_START_S is that child's
# median on the 2-vCPU reference VM.
START_REFERENCE = ("-c", "import numpy")
NOMINAL_START_S = 0.16
STARTUP_REPEATS = 5
TAIL_SAMPLES_ABOVE = 10
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the report line only: the raw wall times behind the scaled
# ones, the reference kernel's own time, and metrics that exist on some
# workloads only or can read 0.
REPORT_ONLY = {
    "wall_solve_p50_ms": "ms",
    "wall_solve_tail_ms": "ms",
    "wall_solves_per_s": "1/s",
    "wall_setup_s": "s",
    "reference_p50_ms": "ms",
    "oracle_p50_ms": "ms",
    "sweep_p50_ms": "ms",
    "certified_rate": "share",
    "optimal_rate": "share",
    "error_rate": "share",
}

EXIT_USAGE = 2
EXIT_BROKEN = 3


def per_layer_units() -> dict:
    """Names and units of every per-layer metric, in report order."""
    from tracer import TARGETS

    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    units.update({
        "solver.iterations": "count",
        "solver.perturb_rounds": "count",
        "solver.solve_dual.per_op": "count",
        "dual.assemble_G.per_iteration": "count",
        "linalg.eigh.share": "share",
        "solver.solve_dual.share": "share",
        "linalg.eigh.self_s.blas_default": "s",
        "cli.import_s": "s",
        "cli.interpreter_s": "s",
        "trace.overhead_s": "s",
        "path.certified": "share",
        "path.perturbation": "share",
        "path.failed": "share",
        "gate.optimal_rate": "share",
        "gate.error_rate": "share",
    })
    return units


def child_env(base: dict) -> dict:
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, base.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list, env: dict) -> tuple:
    """(wall seconds, stdout) of a child process that must exit 0."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return wall, proc.stdout


def median_wall(cmd: list, env: dict, repeats: int) -> float:
    return statistics.median(run_child(cmd, env)[0] for _ in range(repeats))


def scaled_setup(cmd: list, env: dict) -> tuple:
    """(scaled, wall) medians in seconds of SETUP_REPEATS set-up children,
    each timed right after a START_REFERENCE child."""
    walls, ratios = [], []
    for _ in range(SETUP_REPEATS):
        ref = run_child([sys.executable, *START_REFERENCE], env)[0]
        wall = run_child(cmd, env)[0]
        walls.append(wall)
        ratios.append(wall / ref)
    return NOMINAL_START_S * statistics.median(ratios), statistics.median(walls)


def tail(values: list) -> tuple:
    """Highest percentile with at least TAIL_SAMPLES_ABOVE samples above it.

    Returns (value, percentile); with too few samples, the maximum at 100.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_SAMPLES_ABOVE - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def outcome(records: list) -> dict:
    """Path shares and rates over solves; errors over every attempted op."""
    solves = [r for r in records if r.is_solve]
    paths = {"certified": 0, "perturbation": 0, "failed": 0}
    for rec in solves:
        paths[rec.verdict.path] += 1
    failed = sum(1 for r in records if r.error is not None or r.verdict.path == "failed")
    n = max(len(solves), 1)
    return {
        "paths": {k: v / n for k, v in paths.items()},
        "certified_rate": paths["certified"] / n,
        "optimal_rate": sum(1 for r in solves if r.verdict.optimal) / n,
        "error_rate": failed / max(len(records), 1),
        "failed": failed,
        "wrong": [r.verdict.wrong for r in records if r.verdict.wrong],
    }


def measure(workload: str, seed: int, seconds: float, env: dict, workdir: str) -> tuple:
    """The untraced run: end-to-end metrics."""
    import reference
    import tracer
    import workloads
    from gate import Gate

    runner = workloads.Runner(workdir, env)
    runner.warm_up(workload)
    tracer.assert_untraced()
    gate = Gate()
    records = workloads.closed_loop(runner, workloads.cycles(workload, seed), seconds, gate)
    tracer.assert_untraced()
    # read before the setup children run; for cli the peak over its processes
    peak = rss_mb(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF)
    setup, setup_wall = scaled_setup([sys.executable, os.path.join(HERE, "child.py"), "setup",
                                      SETUP_FAMILY[workload]], env)

    walls = [r.wall_s for r in records]
    scaled = reference.scaled(walls, [r.ref_s for r in records])
    solve_ms = [t * 1e3 for t, r in zip(scaled, records) if r.is_solve]
    wall_ms = [r.wall_s * 1e3 for r in records if r.is_solve]
    sweep_ms = [r.wall_s * 1e3 for r in records if not r.is_solve]
    tail_ms, tail_pct = tail(solve_ms)
    result = outcome(records)
    values = {
        "solve_p50_ms": statistics.median(solve_ms),
        "solve_tail_ms": tail_ms,
        "solves_per_s": len(solve_ms) / sum(scaled),
        "setup_s": setup,
        "peak_rss_mb": peak,
        "wall_solve_p50_ms": statistics.median(wall_ms),
        "wall_solve_tail_ms": tail(wall_ms)[0],
        "wall_solves_per_s": len(wall_ms) / sum(walls),
        "wall_setup_s": setup_wall,
        "reference_p50_ms": statistics.median(r.ref_s for r in records) * 1e3,
        "oracle_p50_ms": statistics.median(gate.oracle_ms) if gate.oracle_ms else None,
        "sweep_p50_ms": statistics.median(sweep_ms) if sweep_ms else None,
        "certified_rate": result["certified_rate"],
        "optimal_rate": result["optimal_rate"],
        "error_rate": result["error_rate"],
    }
    units = dict(END_TO_END, **REPORT_ONLY)
    report = {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "solve_tail_percentile": tail_pct,
        "solves": len(solve_ms),
        "sweeps": len(sweep_ms),
        "oracle_calls": len(gate.oracle_ms),
        "busy_s": sum(walls),
        "paths": result["paths"],
        "wrong": result["wrong"],
        "errors": [r.error for r in records if r.error][:5],
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return report, metrics, len(records), result


def trace(workload: str, seed: int, seconds: float, env: dict, caller_env: dict,
          workdir: str) -> tuple:
    """The traced run: per-layer metrics from a fixed op list."""
    import tracer
    import workloads
    from gate import Gate

    runner = workloads.Runner(workdir, env)
    runner.warm_up(workload)
    ops = workloads.trace_set(workload, seed)

    tracer.assert_untraced()
    if workload == "cli":
        # each traced CLI process installs its own tracer and writes its stats
        traced_runner = workloads.Runner(workdir, env, trace_dir=workdir)
        base, records, passes = workloads.repeat_passes(runner, traced_runner, ops,
                                                        seconds / 2, contextlib.nullcontext())
        stats = merge_child_traces(traced_runner.cli_traces)
    else:
        tr = tracer.Tracer()
        base, records, passes = workloads.repeat_passes(runner, runner, ops, seconds / 2, tr)
        stats = tr.stats()
    tracer.assert_untraced()

    gate = Gate()
    workloads.judge(gate, base)
    with tracer.Tracer(("oracle.enumerate_signs",)) as gate_tr:
        workloads.judge(gate, records)
    stats["oracle.enumerate_signs"] = gate_tr.stats()["oracle.enumerate_signs"]

    per_pass = {}
    for name, st in stats.items():
        st = {} if st == "absent" else st
        per_pass[f"{name}.calls"] = st.get("calls", 0) / passes
        per_pass[f"{name}.self_s"] = st.get("self_s", 0.0) / passes
    tallies = {name: st.get("tally", 0) / passes for name, st in stats.items() if st != "absent"}
    iterations = tallies.get("solver.solve_dual", 0.0)
    traced_wall = sum(r.wall_s for r in records) / passes
    base_wall = sum(r.wall_s for r in base) / passes

    if workload == "cli":
        probe = {"eigh_self_s": per_pass["linalg.eigh.self_s"]}
    else:
        _, out = run_child([sys.executable, os.path.join(HERE, "child.py"), "blas", workdir,
                            workload, str(seed), str(seconds / 6)], caller_env)
        probe = json.loads(out)
    interpreter = median_wall([sys.executable, "-c", "pass"], env, STARTUP_REPEATS)
    imported = median_wall([sys.executable, "-c", "import canondual"], env, STARTUP_REPEATS)

    result = outcome(base + records)
    values = dict(per_pass)
    values.update({
        "solver.iterations": iterations,
        "solver.perturb_rounds": tallies.get("solver.perturbed_solve", 0.0),
        "solver.solve_dual.per_op": per_pass["solver.solve_dual.calls"] / len(ops),
        "dual.assemble_G.per_iteration":
            per_pass["dual.assemble_G.calls"] / iterations if iterations else 0.0,
        "linalg.eigh.share": per_pass["linalg.eigh.self_s"] / traced_wall,
        "solver.solve_dual.share": per_pass["solver.solve_dual.self_s"] / traced_wall,
        "linalg.eigh.self_s.blas_default": probe["eigh_self_s"],
        "cli.import_s": imported - interpreter,
        "cli.interpreter_s": interpreter,
        "trace.overhead_s": traced_wall - base_wall,
        "path.certified": result["paths"]["certified"],
        "path.perturbation": result["paths"]["perturbation"],
        "path.failed": result["paths"]["failed"],
        "gate.optimal_rate": result["optimal_rate"],
        "gate.error_rate": result["error_rate"],
    })
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report = {
        "metrics": metrics,
        "ops_per_pass": len(ops),
        "passes": passes,
        "pass_wall_s": {"untraced": base_wall, "traced": traced_wall},
        "blas_default_probe": probe,
        "absent": sorted(name for name, st in stats.items() if st == "absent"),
        "paths": result["paths"],
        "wrong": result["wrong"],
        "errors": [r.error for r in base + records if r.error][:5],
    }
    return report, metrics, len(base) + len(records), result


def merge_child_traces(paths: list) -> dict:
    """Sum the tracer stats the traced CLI processes wrote."""
    from tracer import TARGETS

    total = {name: {"calls": 0, "self_s": 0.0, "tally": 0} for name in TARGETS}
    for path in paths:
        with open(path) as fh:
            for name, st in json.load(fh).items():
                if st == "absent" or total[name] == "absent":
                    total[name] = "absent"
                    continue
                for key in st:
                    total[name][key] += st[key]
    return total


def run_all(args) -> int:
    """Both modes of every workload, each in a fresh process."""
    results = {}
    for workload in WORKLOADS:
        for mode in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", mode],
                stdout=subprocess.PIPE, check=False)
            lines = proc.stdout.decode().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} --trace {mode}: exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            report = json.loads(lines[-2])["report"]
            results[f"{workload}/trace{mode}"] = {"report": report, "result": json.loads(lines[-1])}
            for name, m in report["metrics"].items():
                print(f"{workload:14s} {name:40s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "canondual", "__init__.py")):
        print(f"error: no package sources at {SRC}; run from a canondual checkout",
              file=sys.stderr)
        return EXIT_USAGE
    if args.workload == "all":
        return run_all(args)

    caller_env = child_env(os.environ)
    if args.workload in IN_PROCESS:
        os.environ.update(BLAS_PIN)  # before numpy is first imported
    env = child_env(os.environ)
    sys.path.insert(0, SRC)

    import machine
    from gate import BrokenGuarantee

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        if args.trace:
            report, metrics, attempted, result = trace(
                args.workload, args.seed, args.seconds, env, caller_env, workdir)
        else:
            report, metrics, attempted, result = measure(
                args.workload, args.seed, args.seconds, env, workdir)
    except BrokenGuarantee as exc:
        print(f"broken guarantee: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass

    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "blas_pin": BLAS_PIN if args.workload in IN_PROCESS else None,
        "machine": machine.facts(ROOT),
    })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not result["wrong"], "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
