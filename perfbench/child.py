"""Child-process entry points of the benchmark.

    child.py setup FAMILY                  import canondual, make one tiny call
    child.py blas DIR WORKLOAD SEED SECS   traced passes with inherited BLAS threads
    child.py cli TRACE_OUT ARGV...         run canon-dual ARGV under the tracer

The parent puts the package sources on PYTHONPATH and chooses the
environment (BLAS pin or the caller's own).
"""

import json
import sys


def setup(family: str) -> None:
    from canondual import integer, solver

    import instances

    if family == "cli":
        import canondual.cli  # noqa: F401  (the CLI's own import cost)
    if family == "continuous":
        solver.solve_dual(instances.tiny_well())
    else:
        integer.qip_dual_solve(instances.tiny_qip())


def blas(workdir: str, workload: str, seed: str, seconds: str) -> None:
    import machine
    import tracer
    import workloads

    runner = workloads.Runner(workdir, env=None)
    runner.warm_up(workload)
    ops = workloads.trace_set(workload, int(seed))
    tr = tracer.Tracer(("linalg.eigh",))
    _, _, passes = workloads.repeat_passes(runner, runner, ops, float(seconds), tr)
    print(json.dumps({"eigh_self_s": tr.self_s["linalg.eigh"] / passes,
                      "passes": passes, "blas_threads": machine.blas_threads()}))


def cli(trace_out: str, argv: list) -> int:
    from canondual import cli as cli_module

    import tracer

    with tracer.Tracer() as tr:
        code = cli_module.main(argv)
    with open(trace_out, "w") as fh:
        json.dump(tr.stats(), fh)
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*args)
    elif mode == "blas":
        blas(*args)
    elif mode == "cli":
        sys.exit(cli(args[0], args[1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
