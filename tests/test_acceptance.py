"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from canondual import dual, linalg, model, oracle, relaxations as rx, solver, triality
from canondual.integer import qip_dual_solve
from canondual.model import CanonicalTerm, Problem, TermKind
from canondual.solver import SolverConfig

from conftest import double_well, random_problem, random_qip, solve_rlt


def _report(name: str, ok: bool, detail: str = "") -> bool:
    import conftest

    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {name}: {status}{' - ' + detail if detail else ''}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def test_criterion_1_double_well_reproduction():
    t0 = time.perf_counter()
    ok = True

    # (a) f = 0.5: interior maximizer, analytic recovery, global label
    p = double_well(0.5)
    rep = solver.solve_dual(p)
    s1 = rep.sigma_bar[0]
    x1 = rep.x_bar[0]
    ok &= abs((s1 + 2.0) * s1 * s1 - 0.125) <= 1e-9
    ok &= abs(x1**3 - 4.0 * x1 - 1.0) <= 1e-7
    ok &= rep.triality_class == "global_min"
    probe = oracle.grid_multistart(p, (-4.0, 4.0), grid_points=4001, local_refine=False)
    ok &= probe.best_value >= rep.primal_value - 1e-6

    # (b) f = 0: isolated dual maximizer at -2 paired with the center point,
    # boundary roots at zero, symmetric minima through perturbation
    p0 = double_well(0.0)
    points = solver.dual_critical_points(p0)
    ok &= len(points) == 1 and abs(points[0][0][0] + 2.0) <= 1e-9
    x3 = dual.recover_x(p0, points[0][0])
    ok &= abs(x3[0]) <= 1e-9
    ok &= triality.classify(p0, x3, points[0][0]).label is triality.TrialityLabel.LOCAL_MAX
    rep0 = solver.solve_dual(p0)
    ok &= rep0.status == "boundary" and abs(rep0.sigma_bar[0]) <= 1e-6
    roots0 = solver.solve_cubic_dual(1.0, 2.0, 0.0)
    ok &= np.allclose(roots0, [0.0, 0.0, -2.0], atol=1e-12)
    pert = solver.perturbed_solve(p0, SolverConfig(seed=1))
    ok &= abs(abs(pert.x_bar[0]) - 2.0) <= 1e-5

    # (c) f = -2: exactly one dual critical point, certified side
    pm = double_well(-2.0)
    pts = solver.dual_critical_points(pm)
    ok &= len(pts) == 1 and pts[0][2] is dual.Membership.INTERIOR

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report("1 (double-well reproduction)", ok, f"{elapsed:.2f}s")


def test_criterion_2_matched_value_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    interior = 0
    worst = 0.0
    for _ in range(50):
        p = random_problem(rng, n_max=8)
        try:
            rep = solver.solve_dual(p)
        except Exception:
            continue
        if rep.status != "interior":
            continue
        interior += 1
        scale = 1.0 + abs(rep.primal_value)
        r_value = abs(rep.primal_value - rep.dual_value) / scale
        r_xi = abs(dual.eval_Xi(p, rep.x_bar, rep.sigma_bar) - rep.primal_value) / scale
        worst = max(worst, r_value, r_xi)
    elapsed = time.perf_counter() - t0
    ok = interior >= 40 and worst <= 1e-7 and elapsed < 30.0
    assert _report("2 (matched-value residuals)", ok,
                   f"{interior}/50 interior, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_qip_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    certified = 0
    exact = 0
    weak_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 13))
        inst = random_qip(rng, n, f_style="uniform")
        rep = qip_dual_solve(inst)
        best = oracle.enumerate_signs(inst)
        if math.isfinite(rep.dual_value):
            weak_ok &= rep.dual_value <= best.best_value + 1e-7
        if rep.certificate == "dual_certified":
            certified += 1
            if np.array_equal(rep.x_star, best.best_x) and \
                    abs(rep.objective - rep.dual_value) <= 1e-7 * (1 + abs(rep.objective)):
                exact += 1
    elapsed = time.perf_counter() - t0
    ok = certified >= 90 and exact == certified and weak_ok and elapsed < 120.0
    assert _report("3 (sign-integer exactness)", ok,
                   f"certified {certified}/100, exact {exact}, {elapsed:.1f}s")


def test_criterion_4_derivative_checks():
    rng = np.random.default_rng(1)
    checked_g = checked_h = 0
    worst_g = worst_h = 0.0
    while checked_g < 100:
        p = random_problem(rng, n_max=5)
        s = np.abs(rng.standard_normal(p.dual_dim)) + 0.5
        if dual.assemble_G(p, s).min_eig <= 1e-4:
            continue
        try:
            g = dual.grad_dual(p, s)
            fd = oracle.fd_gradient(lambda z: dual.eval_dual(p, z), s, h=1e-6)
        except Exception:
            continue
        worst_g = max(worst_g, float(np.max(np.abs(g - fd)) / (1 + np.max(np.abs(fd)))))
        checked_g += 1
    while checked_h < 100:
        p = random_problem(rng, n_max=5)
        x = rng.standard_normal(p.n)
        try:
            H = triality.hessian_primal(p, x)
            fd = oracle.fd_hessian(lambda z: model.eval_primal(p, z), x, h=1e-4)
        except Exception:
            continue
        worst_h = max(worst_h, float(np.max(np.abs(H - fd)) / (1 + np.max(np.abs(fd)))))
        checked_h += 1
    ok = worst_g <= 1e-4 and worst_h <= 1e-4
    assert _report("4 (derivative checks)", ok,
                   f"grad {worst_g:.2e}, hessian {worst_h:.2e}")


def test_criterion_5_conjugate_suite():
    rng = np.random.default_rng(3)
    worst_pair = 0.0
    worst_grid = 0.0
    for kind in (TermKind.QUARTIC, TermKind.EXPONENTIAL, TermKind.XLOGX):
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(-2.0, 1.0)) if kind is TermKind.QUARTIC else 0.0
        t = CanonicalTerm(kind, np.array([[1.0]]), alpha, beta)
        xi = rng.uniform(0.02, 5.0, size=100)
        rep = oracle.legendre_check(t, xi)
        worst_pair = max(worst_pair, rep.max_pairing_residual)
        worst_grid = max(worst_grid, rep.max_grid_gap)
    # plain quadratic kind: identity measure, conjugate identically zero on
    # the graph; the pairing reduces to xi*1 - xi = 0
    t = CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.array([[1.0]]), 1.3)
    for xi in rng.uniform(-3, 3, size=100):
        worst_pair = max(worst_pair, abs(t.phi(xi) - xi * t.phi_grad(xi)))
    ok = worst_pair <= 1e-9 and worst_grid <= 1e-4
    assert _report("5 (conjugate suite)", ok,
                   f"pairing {worst_pair:.2e}, grid gap {worst_grid:.2e}")


def test_criterion_6_block_psd_equivalence():
    rng = np.random.default_rng(10)
    mismatches = 0
    tol = 1e-8
    for k in range(500):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        G = 0.5 * (A + A.T)
        if k % 3 == 0:
            w, v = np.linalg.eigh(G)
            w = np.abs(w)
            if k % 6 == 0:
                w[0] = 0.0
            G = (v * w) @ v.T
            G = 0.5 * (G + G.T)
        f = G @ rng.standard_normal(n) if k % 2 == 0 else rng.standard_normal(n)
        g = float(rng.standard_normal())
        block = rx.schur_block(G, f, g)
        scale = 1.0 + np.linalg.norm(block, "fro")
        direct = linalg.eigh(block).eigvals[0] >= -tol * scale
        if rx.schur_psd_check(G, f, g, tol=tol) != direct:
            mismatches += 1

    value_ok = True
    rng2 = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        inst = random_qip(rng2, int(rng2.integers(3, 8)))
        rep = qip_dual_solve(inst)
        if rep.certificate != "dual_certified":
            continue
        # at the certified sigma*, g* = 0.5 f'G^-1 f is the least feasible
        # epigraph variable and g* + conjugate is minus the enumerated optimum
        sigma = rep.sigma_star
        G = inst.Q + 2.0 * np.diag(sigma)
        g_star = 0.5 * float(inst.f @ np.linalg.solve(G, inst.f))
        best = oracle.enumerate_signs(inst).best_value
        value = -(g_star + dual.conjugate_total(inst.to_problem(), sigma))
        value_ok &= rx.schur_psd_check(G, inst.f, g_star)
        value_ok &= not rx.schur_psd_check(G, inst.f, g_star - 1e-6 * (1 + abs(g_star)))
        value_ok &= abs(value - best) <= 1e-6 * abs(best)
        checked += 1
    ok = mismatches == 0 and value_ok
    assert _report("6 (block-psd equivalence)", ok,
                   f"{mismatches} mismatches over 500, epigraph values {'ok' if value_ok else 'bad'}")


def test_criterion_7_linearization_validity():
    rng = np.random.default_rng(5)
    ok = True
    recovered = 0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        Q = 0.5 * (A + A.T)
        if rng.random() < 0.4:
            Q = Q + n * np.eye(n)  # convex instances bind products exactly
        f = rng.standard_normal(n)
        lo, up = -np.ones(n), np.ones(n)
        lp = rx.build_rlt(Q, f, lo, up)
        x, xi, value = solve_rlt(lp)
        p = Problem(n=n, terms=_terms_of(Q, n), f=f)
        points = 9 if n >= 5 else 21
        probe = oracle.grid_multistart(p, np.stack([lo, up], axis=1), grid_points=points)
        ok &= value <= probe.best_value + 1e-6
        # xi follows pair_index, the row-major upper triangle
        if np.max(np.abs(xi - np.outer(x, x)[np.triu_indices(n)])) <= 1e-8:
            recovered += 1
            step = 2.0 / (points - 1)
            ok &= model.eval_primal(p, x) <= probe.best_value + 1e-6
            ok &= np.max(np.abs(x - probe.best_x)) <= step + 1e-9
    assert _report("7 (linearization validity)", ok, f"{recovered} exact-product instances")


def _terms_of(Q, n):
    w, v = np.linalg.eigh(Q)
    terms = []
    if np.any(w > 0):
        terms.append(CanonicalTerm(TermKind.PLAIN_QUADRATIC,
                                   (np.sqrt(w[w > 0])[:, None]) * v[:, w > 0].T, 1.0))
    if np.any(w < 0):
        terms.append(CanonicalTerm(TermKind.PLAIN_QUADRATIC,
                                   (np.sqrt(-w[w < 0])[:, None]) * v[:, w < 0].T, -1.0))
    if not terms:
        terms.append(CanonicalTerm(TermKind.PLAIN_QUADRATIC, np.zeros((1, n)), 1.0))
    return terms


def test_criterion_8_uniqueness_threshold():
    grid = [round(0.1 * k, 10) for k in range(1, 41)]
    res = solver.fc_sweep(double_well(0.0), [1.0], grid, SolverConfig(seed=2))
    # independent oracle: first grid magnitude where the stationarity cubic
    # drops from three real roots to one
    oracle_threshold = next(m for m in grid
                            if len(solver.solve_cubic_dual(1.0, 2.0, m)) == 1)
    ok = res.threshold is not None and abs(res.threshold - oracle_threshold) <= 0.1 + 1e-12
    assert _report("8 (uniqueness threshold)", ok,
                   f"detected {res.threshold}, oracle {oracle_threshold}")


def test_criterion_9_report_determinism(tmp_path):
    doc = {"qip": {"Q": [[0, 1], [1, 0]], "f": [3, 0]}}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))

    def run():
        return subprocess.run(
            [sys.executable, "-m", "canondual", "solve", str(path), "--seed", "9"],
            capture_output=True, text=True, timeout=600,
        )

    a, b = run(), run()
    ok = a.returncode == b.returncode and a.stdout == b.stdout and a.stdout.strip()
    assert _report("9 (report determinism)", bool(ok))
