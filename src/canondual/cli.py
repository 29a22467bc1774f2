"""Command line interface.

Subcommands: solve, classify, oracle, export, sweep, plotdata.  Reports are
single JSON documents on stdout (sorted keys, compact separators) so the
same seed and flags reproduce the bytes exactly; human-readable rendering,
including wall time, sits behind --pretty.  Exit codes separate certified
answers from heuristic ones:

    0  certified global optimum (interior dual / dual_certified)
    1  schema, input, or budget errors
    2  heuristic or boundary answer (perturbation_only, boundary)
    3  solver failure
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, dual, integer, model, oracle, relaxations, solver, triality
from .errors import CanonDualError, EmptyInterior, MaxIterations, TooLarge

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
    try:
        return args.handler(args)
    except (CanonDualError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="canon-dual",
                                     description="dual solvers and oracles for canonical problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--tol", type=float, default=None,
                       help="gradient tolerance (classify: stationarity tolerance of the pair)")
        p.add_argument("--max-iter", type=int, default=None, help="outer iteration cap")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--config", default=None, help="solver config JSON file")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="pretty", action="store_false", default=False,
                         help="machine-readable JSON report (default)")
        fmt.add_argument("--pretty", dest="pretty", action="store_true",
                         help="human-readable rendering with timing")

    p_solve = sub.add_parser("solve", help="run the dual solver")
    common(p_solve)
    p_solve.add_argument("--perturb", action="store_true",
                         help="allow the perturbation rounds on degeneracy")
    p_solve.add_argument("--delta0", type=float, default=None,
                         help="initial perturbation weight")
    p_solve.set_defaults(handler=_cmd_solve)

    p_cls = sub.add_parser("classify", help="classify a critical pair")
    common(p_cls)
    p_cls.add_argument("--x", required=True, help="comma-separated primal point")
    p_cls.add_argument("--sigma", required=True, help="comma-separated dual point")
    p_cls.set_defaults(handler=_cmd_classify)

    p_or = sub.add_parser("oracle", help="ground-truth search")
    common(p_or)
    p_or.add_argument("--box", default="-4:4", help="search box lo:hi for continuous problems")
    p_or.add_argument("--points", type=int, default=21, help="grid points per axis")
    p_or.add_argument("--no-refine", action="store_true", help="skip local polishing")
    p_or.set_defaults(handler=_cmd_oracle)

    p_exp = sub.add_parser("export", help="write a relaxation file")
    common(p_exp)
    p_exp.add_argument("--format", required=True, choices=["sdpa", "lp"])
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--box", default=None,
                       help="box lo:hi for the lp relaxation of a non-qip problem (default -1:1)")
    p_exp.set_defaults(handler=_cmd_export)

    p_sweep = sub.add_parser("sweep", help="input-magnitude uniqueness sweep")
    common(p_sweep)
    p_sweep.add_argument("--direction", required=True, help="comma-separated direction")
    p_sweep.add_argument("--grid", required=True, help="comma-separated magnitudes")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker threads for the grid solves (default 1)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_plot = sub.add_parser("plotdata", help="primal and dual curve samples as TSV")
    common(p_plot)
    p_plot.add_argument("--range", dest="range_spec", required=True, help="a:b:steps")
    p_plot.set_defaults(handler=_cmd_plotdata)
    return parser


def _load_config(args) -> solver.SolverConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = solver.SolverConfig.from_json(fh.read())
    else:
        cfg = solver.SolverConfig()
    flags = {"grad_tol": args.tol, "max_outer": args.max_iter, "seed": args.seed,
             "perturb_delta0": getattr(args, "delta0", None)}
    # replace() reruns SolverConfig's validation on the flag values
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _load_document(path):
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "qip" in doc:
        return integer.load_qip(doc)
    return model.load_problem(doc)


def _to_jsonable(obj):
    # json.dumps renders non-finite floats as NaN/Infinity literals, which is
    # deterministic and accepted back by json.loads
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(args, command: str, config: dict, payload: dict, started: float) -> None:
    report = {
        "command": command,
        "config": _to_jsonable(config),
        "payload": _to_jsonable(payload),
        "version": __version__,
    }
    if args.pretty:
        elapsed_ms = (time.perf_counter() - started) * 1e3
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"wall time: {elapsed_ms:.1f} ms")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    loaded = _load_document(args.problem)
    if isinstance(loaded, integer.QipInstance) or loaded.is_sign_integer:
        if isinstance(loaded, integer.QipInstance):
            report = integer.qip_dual_solve(loaded, cfg)
        else:
            report = integer.sign_problem_solve(loaded, cfg)
        payload = {"kind": "qip", "report": report.to_dict()}
        _emit(args, "solve", cfg.to_dict(), payload, started)
        if report.certificate == "dual_certified":
            return EXIT_OK
        return EXIT_HEURISTIC if report.certificate == "perturbation_only" else EXIT_FAILED

    p = loaded
    try:
        if args.perturb:
            rep = solver.perturbed_solve(p, cfg)
        else:
            rep = solver.solve_dual(p, cfg)
    except (EmptyInterior, MaxIterations) as exc:
        if not args.perturb and isinstance(exc, EmptyInterior):
            try:
                rep = solver.perturbed_solve(p, cfg)
            except (EmptyInterior, MaxIterations) as exc2:
                _emit(args, "solve", cfg.to_dict(), {"kind": "continuous", "error": str(exc2)},
                      started)
                return EXIT_FAILED
        else:
            _emit(args, "solve", cfg.to_dict(), {"kind": "continuous", "error": str(exc)}, started)
            return EXIT_FAILED
    payload = {"kind": "continuous", "report": rep.to_dict()}
    _emit(args, "solve", cfg.to_dict(), payload, started)
    if rep.status == "interior" and rep.triality_class == triality.TrialityLabel.GLOBAL_MIN.value:
        return EXIT_OK
    return EXIT_HEURISTIC


def _cmd_classify(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    loaded = _load_document(args.problem)
    p = loaded.to_problem() if isinstance(loaded, integer.QipInstance) else loaded
    x = np.array([float(tok) for tok in args.x.split(",")])
    s = np.array([float(tok) for tok in args.sigma.split(",")])
    tol = triality.DEFAULT_CRIT_TOL if args.tol is None else args.tol
    result = triality.classify(p, x, s, tol=tol)  # NotCritical exits 1 in main
    _emit(args, "classify", cfg.to_dict(), {"classification": result.to_dict()}, started)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    loaded = _load_document(args.problem)
    try:
        if isinstance(loaded, integer.QipInstance):
            result = oracle.enumerate_signs(loaded)
        elif loaded.is_sign_integer:
            result = oracle.enumerate_signs(_problem_to_qip(loaded))
        else:
            lo, hi = _parse_range2(args.box)
            result = oracle.grid_multistart(
                loaded, (lo, hi), grid_points=args.points,
                local_refine=not args.no_refine, seed=cfg.seed,
            )
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(args, "oracle", cfg.to_dict(), {"oracle": result.to_dict()}, started)
    return EXIT_OK


def _problem_to_qip(p: model.Problem) -> integer.QipInstance:
    Q = np.zeros((p.n, p.n))
    for t in p.terms:
        if t.kind is not model.TermKind.PLAIN_QUADRATIC:
            raise CanonDualError("this command needs a purely quadratic objective")
        Q += t.alpha * t.Q
    return integer.QipInstance(Q=Q, f=p.f)


def _cmd_export(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    loaded = _load_document(args.problem)
    if args.box is not None and (args.format == "sdpa" or isinstance(loaded, integer.QipInstance)):
        raise ValueError("--box applies only to the lp export of a non-qip problem "
                         "(a qip document's box is [-1, 1])")
    if args.format == "sdpa":
        p = loaded.to_problem() if isinstance(loaded, integer.QipInstance) else loaded
        data = relaxations.export_sdp(p, args.out)
        payload = {"format": "sdpa", "out": args.out, "variables": data.m,
                   "blocks": data.block_sizes}
    else:
        lo, hi = _parse_range2(args.box or "-1:1")
        qp = loaded if isinstance(loaded, integer.QipInstance) else _problem_to_qip(loaded)
        Q, f, n = qp.Q, qp.f, qp.n
        lp = relaxations.build_rlt(Q, f, np.full(n, lo), np.full(n, hi))
        relaxations.export_rlt_lp(lp, args.out)
        payload = {"format": "lp", "out": args.out, "rows": len(lp.rhs),
                   "variables": lp.n_vars}
    _emit(args, "export", cfg.to_dict(), payload, started)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args)
    loaded = _load_document(args.problem)
    p = loaded.to_problem() if isinstance(loaded, integer.QipInstance) else loaded
    direction = np.array([float(tok) for tok in args.direction.split(",")])
    grid = [float(tok) for tok in args.grid.split(",")]
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    result = solver.fc_sweep(p, direction, grid, cfg, threads=args.threads)
    _emit(args, "sweep", cfg.to_dict(), {"sweep": result.to_dict()}, started)
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    cfg = _load_config(args)
    loaded = _load_document(args.problem)
    p = loaded.to_problem() if isinstance(loaded, integer.QipInstance) else loaded
    if p.n != 1 or p.dual_dim != 1:
        print("error: curve sampling needs a one-dimensional problem with one dual coordinate",
              file=sys.stderr)
        return EXIT_INPUT
    a, b, steps = _parse_range3(args.range_spec)
    grid = np.linspace(a, b, steps)
    lines = ["x\tpi\tsigma\tpi_dual"]
    for t in grid:
        pi = model.eval_primal(p, np.array([t]))
        try:
            pid = dual.eval_dual(p, np.array([t]))
        except CanonDualError:
            pid = float("nan")
        lines.append(
            "\t".join(format(v, ".17g") for v in (t, pi, t, pid))
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


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
