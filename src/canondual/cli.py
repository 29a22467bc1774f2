"""Command line interface.

Subcommands: solve, classify, oracle, export, sweep, plotdata.  ``main``
loads the solver config and the problem document once, runs the
subcommand's handler on them, and emits its report; a handler returns the
payload and the exit code, and plotdata writes its TSV itself.  Each
subcommand declares only the flags it reads:

    solve, sweep  --tol --max-iter --seed --config --pretty (and their own)
    classify      --tol --pretty
    oracle        --seed --pretty
    export        --pretty
    plotdata      none

Reports are single JSON documents on stdout (sorted keys, compact
separators), the payload's dataclasses serialized field by field, so the
same seed and flags reproduce the bytes exactly; human-readable rendering,
including wall time, sits behind --pretty.  Exit codes separate certified
answers from heuristic ones:

    0  certified global optimum (interior dual / dual_certified)
    1  schema, input, or budget errors
    2  heuristic or boundary answer: a continuous boundary or perturbation
       report, or a sign answer rounded from the dual point
       (perturbation_only, no certificate)
    3  solver failure (for a sign problem, certificate failed: the dual
       solve raised)

A sign problem runs no perturbation round, so --seed, --perturb and
--delta0 do not change its report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from enum import Enum
from typing import Optional

import numpy as np

from . import __version__, dual, integer, model, solver, triality
from .errors import CanonDualError, EmptyInterior, MaxIterations

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HEURISTIC = 2
EXIT_FAILED = 3


# Flags whose values may begin with a dash (negative numbers, ranges).
_DASH_VALUE_FLAGS = {"--range", "--x", "--sigma", "--direction", "--grid", "--box"}


def _merge_dash_values(argv: list) -> list:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _DASH_VALUE_FLAGS and nxt and nxt.startswith("-") and len(nxt) > 1 \
                and (nxt[1].isdigit() or nxt[1] == "."):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which it has
        # already printed to stderr; 2 here means a heuristic answer
        return EXIT_OK if not exc.code else EXIT_INPUT
    started = time.perf_counter()
    try:
        cfg = _load_config(args)
        p, qip = _load_document(args.problem)
        payload, code = args.handler(args, cfg, p, qip)
        if payload is not None:
            _emit(args, cfg, payload, started)
        return code
    except (CanonDualError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


# The flags that more than one subcommand reads.  Any flag whose dest names
# a SolverConfig field (these and solve's --delta0) overrides that field of
# the config; classify's --tol too, as the report's config block records it.
_SHARED_FLAGS = {
    "--tol": dict(dest="grad_tol", type=float,
                  help="gradient tolerance (classify: stationarity tolerance of the pair)"),
    "--max-iter": dict(dest="max_outer", type=int, help="outer iteration cap"),
    "--seed": dict(type=int, help="random seed"),
    "--config": dict(help="solver config JSON file"),
    "--pretty": dict(action="store_true", help="human-readable rendering with timing"),
}
_SOLVER_FLAGS = ("--tol", "--max-iter", "--seed", "--config", "--pretty")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="canon-dual",
                                     description="dual solvers and oracles for canonical problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("problem", help="path to a JSON problem file")
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    p_solve = command("solve", _cmd_solve, "run the dual solver", _SOLVER_FLAGS)
    p_solve.add_argument("--perturb", action="store_true",
                         help="allow the perturbation rounds on degeneracy")
    p_solve.add_argument("--delta0", dest="perturb_delta0", type=float,
                         help="initial perturbation weight")

    p_cls = command("classify", _cmd_classify, "classify a critical pair", ("--tol", "--pretty"))
    p_cls.add_argument("--x", required=True, help="comma-separated primal point")
    p_cls.add_argument("--sigma", required=True, help="comma-separated dual point")

    p_or = command("oracle", _cmd_oracle, "ground-truth search", ("--seed", "--pretty"))
    # the grid search flags; a sign problem is enumerated and refuses them
    p_or.add_argument("--box", help="search box lo:hi for continuous problems (default -4:4)")
    p_or.add_argument("--points", type=int,
                      help="grid points per axis (default 21, fewer where the grid budget needs)")
    p_or.add_argument("--no-refine", action="store_true", help="skip local polishing")

    p_exp = command("export", _cmd_export, "write a relaxation file", ("--pretty",))
    p_exp.add_argument("--format", required=True, choices=["sdpa", "lp"])
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--box", default=None,
                       help="box lo:hi for the lp relaxation of a non-qip problem (default -1:1)")

    p_sweep = command("sweep", _cmd_sweep, "input-magnitude uniqueness sweep", _SOLVER_FLAGS)
    p_sweep.add_argument("--direction", required=True, help="comma-separated direction")
    p_sweep.add_argument("--grid", required=True, help="comma-separated magnitudes")

    p_plot = command("plotdata", _cmd_plotdata, "primal and dual curve samples as TSV", ())
    p_plot.add_argument("--range", dest="range_spec", required=True, help="a:b:steps")
    return parser


def _load_config(args) -> solver.SolverConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = solver.SolverConfig.from_json(fh.read())
    else:
        cfg = solver.SolverConfig()
    flags = {f.name: v for f in dataclasses.fields(cfg)
             if (v := getattr(args, f.name, None)) is not None}
    # replace() reruns SolverConfig's validation on the flag values
    return dataclasses.replace(cfg, **flags)


def _load_document(path) -> tuple:
    """(problem, qip): a qip document gives its QipInstance and the problem
    it converts to, any other document its problem and None."""
    with open(path, "rb") as fh:
        doc = model._decode(fh.read())
    if isinstance(doc, dict) and "qip" in doc:
        qip = integer.load_qip(doc)
        return qip.to_problem(), qip
    return model.load_problem(doc), None


def _encode(obj):
    """``json.dumps``' hook for what json cannot encode itself: a dataclass
    as its fields in order, an Enum as its value, numpy through tolist().
    Non-finite floats go out as NaN/Infinity, which json.loads reads back."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, cfg: solver.SolverConfig, payload: dict, started: float) -> None:
    report = {"command": args.command, "config": cfg, "payload": payload,
              "version": __version__}
    if args.pretty:
        elapsed_ms = (time.perf_counter() - started) * 1e3
        print(json.dumps(report, indent=2, sort_keys=True, default=_encode))
        print(f"wall time: {elapsed_ms:.1f} ms")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":"),
                                    default=_encode) + "\n")


def _floats(spec: str) -> np.ndarray:
    return np.array([float(tok) for tok in spec.split(",")])


def _cmd_solve(args, cfg, p, qip) -> tuple:
    if p.is_sign_integer:
        report = integer.sign_problem_solve(
            p, cfg, objective=qip.objective if qip is not None else None)
        code = {"dual_certified": EXIT_OK, "perturbation_only": EXIT_HEURISTIC}
        return {"kind": "qip", "report": report}, code.get(report.certificate, EXIT_FAILED)

    try:
        try:
            rep = solver.perturbed_solve(p, cfg) if args.perturb else solver.solve_dual(p, cfg)
        except EmptyInterior:
            rep = solver.perturbed_solve(p, cfg)  # catches EmptyInterior from each solve
    except MaxIterations as exc:
        return {"kind": "continuous", "error": str(exc)}, EXIT_FAILED
    certified = (rep.status == "interior"
                 and rep.triality_class == triality.TrialityLabel.GLOBAL_MIN.value)
    return {"kind": "continuous", "report": rep}, EXIT_OK if certified else EXIT_HEURISTIC


def _cmd_classify(args, cfg, p, qip) -> tuple:
    tol = triality.DEFAULT_CRIT_TOL if args.grad_tol is None else args.grad_tol
    result = triality.classify(p, _floats(args.x), _floats(args.sigma), tol=tol)
    return {"classification": result}, EXIT_OK  # NotCritical exits 1 in main


def _cmd_oracle(args, cfg, p, qip) -> tuple:
    from . import oracle  # loaded here: a solve never runs it
    if p.is_sign_integer:
        if args.box is not None or args.points is not None or args.no_refine:
            raise ValueError("--box, --points and --no-refine apply only to the grid search "
                             "of a continuous problem (a sign problem is enumerated)")
        result = oracle.enumerate_signs(qip or _problem_to_qip(p))
    else:
        result = oracle.grid_multistart(p, _parse_range2(args.box or "-4:4"),
                                        grid_points=args.points,
                                        local_refine=not args.no_refine, seed=cfg.seed)
    return {"oracle": result}, EXIT_OK


def _problem_to_qip(p: model.Problem) -> integer.QipInstance:
    Q = np.zeros((p.n, p.n))
    for t in p.terms:
        if t.kind is not model.TermKind.PLAIN_QUADRATIC:
            raise CanonDualError("this command needs a purely quadratic objective")
        Q += t.alpha * t.Q
    return integer.QipInstance(Q=Q, f=p.f)


def _cmd_export(args, cfg, p, qip) -> tuple:
    from . import relaxations  # loaded here: a solve never runs it
    if args.box is not None and (args.format == "sdpa" or qip is not None):
        raise ValueError("--box applies only to the lp export of a non-qip problem "
                         "(a qip document's box is [-1, 1])")
    if args.format == "sdpa":
        data = relaxations.export_sdp(p, args.out)
        return {"format": "sdpa", "out": args.out, "variables": data.m,
                "blocks": data.block_sizes}, EXIT_OK
    lo, hi = _parse_range2(args.box or "-1:1")
    qp = qip or _problem_to_qip(p)
    lp = relaxations.build_rlt(qp.Q, qp.f, np.full(qp.n, lo), np.full(qp.n, hi))
    relaxations.export_rlt_lp(lp, args.out)
    return {"format": "lp", "out": args.out, "rows": len(lp.rhs),
            "variables": lp.n_vars}, EXIT_OK


def _cmd_sweep(args, cfg, p, qip) -> tuple:
    direction = _floats(args.direction)
    grid = [float(tok) for tok in args.grid.split(",")]
    result = solver.fc_sweep(p, direction, grid, cfg)
    return {"sweep": result}, EXIT_OK


def _cmd_plotdata(args, cfg, p, qip) -> tuple:
    """Writes its TSV itself; there is no JSON report."""
    if p.n != 1 or p.dual_dim != 1:
        raise ValueError("curve sampling needs a one-dimensional problem with one dual coordinate")
    a, b, steps = _parse_range3(args.range_spec)
    grid = np.linspace(a, b, steps)
    lines = ["x\tpi\tsigma\tpi_dual"]
    for t in grid:
        pi = model.eval_primal(p, np.array([t]))
        try:
            pid = dual.eval_dual(p, np.array([t]))
        except CanonDualError:
            pid = float("nan")
        lines.append("\t".join(format(v, ".17g") for v in (t, pi, t, pid)))
    sys.stdout.write("\n".join(lines) + "\n")
    return None, EXIT_OK


def _parse_range2(spec: str) -> tuple:
    lo, hi = spec.split(":")
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        raise ValueError("range upper bound must exceed the lower bound")
    return lo, hi


def _parse_range3(spec: str) -> tuple:
    a, b, steps = spec.split(":")
    a, b, steps = float(a), float(b), int(steps)
    if steps < 2 or b <= a:
        raise ValueError("range must be a:b:steps with b > a and steps >= 2")
    return a, b, steps


if __name__ == "__main__":
    sys.exit(main())
