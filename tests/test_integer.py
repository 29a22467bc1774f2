import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canondual import integer, oracle
from canondual.errors import DimensionMismatch, EmptyInterior, MaxIterations, SchemaError
from canondual.integer import QipInstance, qip_dual_solve, sign_round
from canondual.solver import SolverConfig

from conftest import random_qip

QIP2 = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([3.0, 0.0]))


def test_qip_dual_solve_textbook_instance():
    rep = qip_dual_solve(QIP2)
    assert rep.certificate == "dual_certified"
    assert np.array_equal(rep.x_star, [1.0, -1.0])
    assert rep.objective == pytest.approx(-4.0, abs=1e-9)
    assert rep.dual_value == pytest.approx(-4.0, abs=1e-7)
    assert np.allclose(rep.sigma_star, [2.0, 0.5], atol=1e-6)


def test_qip_dominant_input():
    rep = qip_dual_solve(QipInstance(Q=2.0 * np.eye(2), f=np.array([10.0, -10.0])))
    assert rep.certificate == "dual_certified"
    assert np.array_equal(rep.x_star, [1.0, -1.0])


def test_qip_symmetric_falls_back_to_perturbation():
    inst = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.zeros(2))
    rep = qip_dual_solve(inst, SolverConfig(seed=3))
    assert rep.certificate == "perturbation_only"
    assert tuple(rep.x_star) in {(1.0, -1.0), (-1.0, 1.0)}
    assert rep.objective == pytest.approx(-1.0)


def test_sign_round():
    assert np.array_equal(sign_round([0.99, -1.01]), [1.0, -1.0])
    assert np.array_equal(sign_round([0.0, 3.0]), [1.0, 1.0])  # zero breaks toward +1
    assert np.array_equal(sign_round([-0.2, 0.9]), [-1.0, 1.0])


def test_complementarity_exact_on_signs(rng):
    inst = QIP2
    for _ in range(10):
        x = rng.choice([-1.0, 1.0], 2)
        sig = rng.uniform(0.0, 5.0, 2)
        rep = integer.complementarity_check(inst, x, sig)
        assert rep.ok and rep.max_violation <= 1e-12


def test_complementarity_reports_violation():
    rep = integer.complementarity_check(QIP2, [0.5, 1.0], [1.0, 0.0])
    assert not rep.ok
    assert rep.max_violation == pytest.approx(0.75)
    assert any("slackness" in v for v in rep.violations)


def test_complementarity_passes_on_certified_pipeline(rng):
    passed = 0
    for _ in range(50):
        inst = random_qip(rng, int(rng.integers(3, 7)))
        rep = qip_dual_solve(inst)
        if rep.certificate != "dual_certified":
            continue
        check = integer.complementarity_check(inst, rep.x_star, rep.sigma_star, tol=1e-6)
        assert check.ok
        passed += 1
    assert passed >= 40


def test_certified_instances_match_enumeration_exactly(rng):
    # adversarial direction: random unit input, certification not guaranteed
    certified = 0
    for _ in range(30):
        inst = random_qip(rng, int(rng.integers(4, 9)), f_style="random_unit")
        rep = qip_dual_solve(inst)
        best = oracle.enumerate_signs(inst)
        if math.isfinite(rep.dual_value):
            assert rep.dual_value <= best.best_value + 1e-7
        if rep.certificate == "dual_certified":
            certified += 1
            assert np.array_equal(rep.x_star, best.best_x)
            assert abs(rep.objective - rep.dual_value) <= 1e-7 * (1 + abs(rep.objective))
    assert certified >= 10


def test_symmetric_instance_sign_flip_has_equal_objective(rng):
    A = rng.uniform(-1, 1, (4, 4))
    inst = QipInstance(Q=0.5 * (A + A.T), f=np.zeros(4))
    rep = qip_dual_solve(inst, SolverConfig(seed=11))
    assert inst.objective(-rep.x_star) == pytest.approx(rep.objective, abs=1e-12)


def test_to_problem_reconstructs_operator(rng):
    inst = random_qip(rng, 5, f_style="random_unit")
    p = inst.to_problem()
    sig = rng.uniform(0.1, 2.0, 5)
    from canondual import dual

    gm = dual.assemble_G(p, sig)
    assert np.allclose(gm.G, inst.Q + 2.0 * np.diag(sig), atol=1e-12)


def test_load_qip_document():
    inst = integer.load_qip(json.dumps({"qip": {"Q": [[0, 1], [1, 0]], "f": [3, 0]}}))
    assert inst.n == 2
    assert inst.objective([1.0, -1.0]) == pytest.approx(-4.0)
    with pytest.raises(SchemaError):
        integer.load_qip({"qip": {"Q": [[0]], "f": [0], "junk": 1}})
    with pytest.raises(DimensionMismatch):
        integer.load_qip({"qip": {"Q": [[0, 1]], "f": [0]}})


def test_qip_near_the_double_range_is_refused_not_solved():
    # Q loads finite; its spectral factors do not, so no report is made of it
    inst = integer.load_qip({"qip": {"Q": [[1e308, 1e308], [1e308, 1e308]], "f": [1, 0]}})
    assert np.all(np.isfinite(inst.Q))
    with pytest.raises(DimensionMismatch, match="non-finite"):
        inst.to_problem()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_sign_round_lands_on_hypercube(values):
    signs = sign_round(values)
    assert set(np.abs(signs)) <= {1.0}


def test_symmetric_instances_never_silently_wrong(rng):
    # without an input the dual region has no interior certificate; answers
    # must be feasible sign vectors and optimality may only be claimed when
    # it actually holds
    for seed in range(4):
        n = int(rng.integers(6, 13))
        A = rng.uniform(-1, 1, (n, n))
        inst = QipInstance(Q=0.5 * (A + A.T), f=np.zeros(n))
        rep = qip_dual_solve(inst, SolverConfig(seed=seed))
        best = oracle.enumerate_signs(inst)
        assert set(np.abs(rep.x_star)) <= {1.0}
        assert rep.objective >= best.best_value - 1e-9
        if rep.certificate == "dual_certified":
            assert rep.objective == pytest.approx(best.best_value, abs=1e-7)


def test_weak_duality_at_feasible_dual_points(rng):
    # any strictly feasible multiplier vector bounds the enumeration optimum
    from canondual import dual

    for _ in range(20):
        inst = random_qip(rng, int(rng.integers(3, 7)), f_style="random_unit")
        p = inst.to_problem()
        best = oracle.enumerate_signs(inst).best_value
        lift = max(0.0, -np.linalg.eigvalsh(inst.Q)[0])
        for _ in range(10):
            sig = 0.5 * lift + rng.uniform(0.05, 3.0, inst.n)
            gm = dual.assemble_G(p, sig)
            if gm.min_eig <= 1e-9:
                continue
            assert dual.eval_dual(p, sig) <= best + 1e-7


def test_sign_pipeline_handles_nonquadratic_terms(rng):
    # sign-integer wells: enumerate the primal over all sign vectors and
    # compare with the generic pipeline outcome
    from canondual import model
    from canondual.model import CanonicalTerm, Problem, TermKind, Variables

    n = 4
    D = rng.standard_normal((n, n)) / np.sqrt(n)
    terms = [CanonicalTerm(TermKind.QUARTIC, D, 1.0, -0.8)]
    f = 2.0 * rng.standard_normal(n)
    p = Problem(n=n, terms=terms, f=f, variables=Variables.SIGN_INTEGER)
    rep = integer.sign_problem_solve(p, SolverConfig(seed=2))
    ks = np.arange(1 << n)
    X = (((ks[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1) * 2 - 1).astype(float)
    vals = model.eval_primal_batch(p, X)
    best = float(np.min(vals))
    assert set(np.abs(rep.x_star)) <= {1.0}
    assert rep.certificate in ("dual_certified", "perturbation_only")
    # the answer is a feasible sign vector, and on this instance the
    # rounding of the first dual point lands on the enumeration optimum
    assert rep.objective >= best - 1e-9
    assert rep.objective == pytest.approx(best, abs=1e-7)
    if math.isfinite(rep.dual_value):
        assert rep.dual_value <= best + 1e-7


# ------------------------------------------- rounding of the first dual point


def _weak_f_instances(seed: int, count: int, lo: int, hi: int) -> list:
    """Sign QPs with Q = (A + A')/2 and A and f standard normal, n in [lo, hi]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        A = rng.standard_normal((n, n))
        out.append(QipInstance(Q=0.5 * (A + A.T), f=rng.standard_normal(n)))
    return out


def _optimal_count(instances: list) -> int:
    count = 0
    for inst in instances:
        best = oracle.enumerate_signs(inst).best_value
        count += qip_dual_solve(inst).objective <= best + 1e-9 * (1.0 + abs(best))
    return count


def test_uncertified_sign_answer_solves_the_dual_once(monkeypatch):
    from canondual import solver

    calls = {"solve_dual": 0, "perturbed_solve": 0}
    for name in calls:
        def counting(*args, _inner=getattr(solver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(solver, name, counting)
    inst = random_qip(np.random.default_rng(4), 8, f_style="zero")
    rep = qip_dual_solve(inst)
    assert rep.certificate == "perturbation_only"
    assert calls == {"solve_dual": 1, "perturbed_solve": 0}


@pytest.mark.parametrize("error", [EmptyInterior, MaxIterations])
def test_failed_dual_solve_gives_the_descent_from_all_ones(monkeypatch, tmp_path, error):
    from canondual import cli, solver

    def failing(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(solver, "solve_dual", failing)
    inst = random_qip(np.random.default_rng(5), 6, f_style="random_unit")
    p = inst.to_problem()
    rep = qip_dual_solve(inst)
    assert rep.certificate == "failed"
    assert np.array_equal(rep.sigma_star, np.zeros(p.dual_dim))
    assert math.isnan(rep.dual_value)
    assert np.array_equal(rep.x_star, integer._descend(p, np.ones(p.n)))
    path = tmp_path / "qip.json"
    path.write_text(json.dumps({"qip": {"Q": inst.Q.tolist(), "f": inst.f.tolist()}}))
    assert cli.main(["solve", str(path)]) == 3


def test_uncertified_sign_answers_are_one_flip_minima_above_the_dual_bound():
    # zero, weak and strong f, and Q = 0 (every flip of a zero f_i ties)
    rng = np.random.default_rng(3)
    instances = [QipInstance(Q=np.zeros((4, 4)), f=np.zeros(4))]
    for k in range(36):
        n = int(rng.integers(1, 13))
        A = rng.standard_normal((n, n))
        Q = 0.5 * (A + A.T)
        if k % 4 == 0:
            f = np.zeros(n)
        elif k % 4 == 1:
            f = rng.standard_normal(n)
        elif k % 4 == 2:
            f = 3.0 * np.sqrt(n) * rng.choice([-1.0, 1.0], n)
        else:
            Q, f = np.zeros((n, n)), np.where(rng.random(n) < 0.5, 0.0, rng.standard_normal(n))
        instances.append(QipInstance(Q=Q, f=f))
    uncertified = 0
    for inst in instances:
        rep = qip_dual_solve(inst)
        if rep.certificate == "dual_certified":
            continue
        uncertified += 1
        assert rep.certificate == "perturbation_only"
        x = rep.x_star
        assert x.shape == (inst.n,) and set(np.abs(x)) <= {1.0}
        assert rep.objective == inst.objective(x)
        # the descent scores through the spectral split of Q, which agrees
        # with inst.objective to rounding
        flips = [inst.objective(np.where(np.arange(inst.n) == i, -x, x)) for i in range(inst.n)]
        assert min(flips) >= rep.objective - 1e-12 * (1.0 + abs(rep.objective))
        best = oracle.enumerate_signs(inst).best_value
        assert rep.dual_value <= best + 1e-9 * (1.0 + abs(best))
    assert uncertified >= 20


def test_weak_f_sign_qps_are_solved_by_the_rounding():
    # the rounding reached the optimum on 20 of 20 n = 3-10 instances, and on
    # 8 of 8 n = 16-20 ones; the perturbation rounds it replaced reached 8 and 1
    assert _optimal_count(_weak_f_instances(7, 20, 3, 10)) >= 18
    assert _optimal_count(_weak_f_instances(11, 8, 16, 20)) >= 6
