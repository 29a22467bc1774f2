import numpy as np
import pytest

from canondual import linalg, oracle, relaxations as rx
from canondual.errors import Infeasible, TooLarge, Unbounded, UnsupportedTerm
from canondual.integer import QipInstance, qip_dual_solve
from canondual.model import CanonicalTerm, Problem, TermKind

from conftest import double_well, random_qip

QIP2 = QipInstance(Q=np.array([[0.0, 1.0], [1.0, 0.0]]), f=np.array([3.0, 0.0]))


# ------------------------------------------------------------ block form


def test_block_matrix_example():
    B = rx.schur_block(np.array([[4.0, 1.0], [1.0, 1.0]]), np.array([3.0, 0.0]), 1.0)
    assert np.allclose(B, [[4, 1, 3], [1, 1, 0], [3, 0, 2]])


def test_schur_psd_check_threshold():
    # with G = [[4,1],[1,1]] and f = (3,0): f'G^-1 f = 3, so 2g >= 3
    G = np.array([[4.0, 1.0], [1.0, 1.0]])
    f = np.array([3.0, 0.0])
    assert not rx.schur_psd_check(G, f, 1.4)
    assert rx.schur_psd_check(G, f, 1.5)
    assert rx.schur_psd_check(G, f, 2.0)


def test_schur_identity_scalar_cases():
    assert not rx.schur_psd_check(np.eye(2), [1.0, 0.0], 0.25)
    assert rx.schur_psd_check(np.eye(2), [1.0, 0.0], 0.5)  # boundary
    assert not rx.schur_psd_check(np.diag([1.0, 0.0]), [0.0, 1.0], 100.0)  # range violation


def test_zero_input_reduces_to_operator_psd():
    assert rx.schur_psd_check(np.eye(2), np.zeros(2), 0.0)
    assert not rx.schur_psd_check(np.eye(2), np.zeros(2), -0.1)
    assert not rx.schur_psd_check(-np.eye(2), np.zeros(2), 1.0)


def test_schur_agrees_with_block_eigendecomposition(rng):
    tol = 1e-8
    mism = 0
    for k in range(500):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        G = 0.5 * (A + A.T)
        if k % 3 == 0:
            w, v = np.linalg.eigh(G)
            w[: max(1, n // 2)] = np.abs(w[: max(1, n // 2)])
            G = 0.5 * ((v * w) @ v.T + ((v * w) @ v.T).T)
        if k % 5 == 0:
            w, v = np.linalg.eigh(G)
            w[0] = 0.0
            G = 0.5 * ((v * w) @ v.T + ((v * w) @ v.T).T)
        f = rng.standard_normal(n)
        if k % 4 == 0:
            f = G @ rng.standard_normal(n)  # force range membership
        g = float(rng.standard_normal())
        block = rx.schur_block(G, f, g)
        scale = 1.0 + np.linalg.norm(block, "fro")
        direct = linalg.eigh(block).eigvals[0] >= -tol * scale
        if rx.schur_psd_check(G, f, g, tol=tol) != direct:
            mism += 1
    assert mism == 0


def test_sdp_value_matches_certified_qip_dual(rng):
    checked = 0
    while checked < 20:
        inst = random_qip(rng, int(rng.integers(3, 8)))
        rep = qip_dual_solve(inst)
        if rep.certificate != "dual_certified":
            continue
        sd = rx.solve_sdp_via_dual(inst.to_problem())
        assert sd.value == pytest.approx(-rep.dual_value, rel=1e-6, abs=1e-6)
        # epigraph variable equals half the recovered quadratic form
        G = inst.Q + 2.0 * np.diag(sd.sigma)
        x = np.linalg.solve(G, inst.f)
        assert sd.g_star == pytest.approx(0.5 * float(inst.f @ x), rel=1e-6, abs=1e-6)
        checked += 1


def test_sdpa_data_block_structure():
    data = rx.sdpa_data(QIP2.to_problem())
    # variables: two multipliers plus the epigraph scalar
    assert data.m == 3
    assert data.block_sizes[0] == 3
    assert data.block_sizes[-1] == -2
    assert data.c == [1.0, 1.0, 1.0]


def test_sdpa_export_roundtrip(tmp_path):
    path = tmp_path / "q.dat-s"
    data = rx.export_sdp(QIP2.to_problem(), path)
    back = rx.parse_sdpa(path)
    assert back == data
    # byte determinism
    first = path.read_bytes()
    rx.export_sdp(QIP2.to_problem(), path)
    assert path.read_bytes() == first


def test_sdpa_export_quartic_epigraph(tmp_path):
    p = double_well(0.5)
    path = tmp_path / "w.dat-s"
    data = rx.export_sdp(p, path)
    assert data.block_sizes == [2, 2, -1]
    assert rx.parse_sdpa(path) == data


def test_sdpa_export_rejects_transcendental_terms(tmp_path):
    p = Problem(n=1, terms=[CanonicalTerm(TermKind.EXPONENTIAL, np.array([[1.0]]), 1.0)],
                f=np.array([0.1]))
    with pytest.raises(UnsupportedTerm):
        rx.export_sdp(p, tmp_path / "x.dat-s")


# ------------------------------------------------------------------ rlt


def test_product_rows_match_the_expanded_products(rng):
    # reference: expand (a1'x + c1)(a2'x + c2) term by term
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a1, a2 = rng.standard_normal((2, 3, n))
        c1, c2 = rng.standard_normal((2, 3))
        rows, rhs = rx._product_rows(a1, c1, a2, c2)
        pos = {pair: n + idx for idx, pair in enumerate(rx.pair_index(n))}
        for r in range(3):
            expect = np.zeros(n + len(pos))
            expect[:n] = c1[r] * a2[r] + c2[r] * a1[r]
            for j in range(n):
                for k in range(n):
                    expect[pos[(min(j, k), max(j, k))]] += a1[r, j] * a2[r, k]
            assert np.array_equal(rows[r], expect)
            assert rhs[r] == -(c1[r] * c2[r])


def test_rlt_one_dimensional_concave_example():
    lp = rx.build_rlt(np.array([[-1.0]]), np.array([0.0]), [-1.0], [1.0])
    sol = rx.solve_lp_small(lp)
    assert sol.value == pytest.approx(-0.5, abs=1e-9)
    assert sol.xi[0] == pytest.approx(1.0, abs=1e-9)


def test_rlt_lower_bound_property(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        Q = 0.5 * (A + A.T)
        f = rng.standard_normal(n)
        lo, up = -np.ones(n), np.ones(n)
        lp = rx.build_rlt(Q, f, lo, up)
        sol = rx.solve_lp_small(lp)
        p = Problem(n=n, terms=QipInstance(Q=Q, f=f).to_problem().terms, f=f)
        probe = oracle.grid_multistart(p, np.stack([lo, up], axis=1), grid_points=11)
        assert sol.value <= probe.best_value + 1e-7


def test_rlt_exact_product_match_recovers_solution(rng):
    # the product surrogates bind exactly at box corners, so instances with a
    # dominant linear part exercise the recovery condition
    hits = 0
    for k in range(40):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        Q = 0.5 * (A + A.T)
        scale = 4.0 * n if k % 2 == 0 else 0.5
        f = scale * rng.standard_normal(n)
        lo, up = -np.ones(n), np.ones(n)
        lp = rx.build_rlt(Q, f, lo, up)
        sol = rx.solve_lp_small(lp)
        outer = np.outer(sol.x, sol.x)
        if np.max(np.abs(sol.xi_matrix(n) - outer)) > 1e-8:
            continue
        hits += 1
        p = Problem(n=n, terms=QipInstance(Q=Q, f=f).to_problem().terms, f=f)
        probe = oracle.grid_multistart(p, np.stack([lo, up], axis=1), grid_points=41)
        step = 2.0 / 40.0
        assert np.max(np.abs(sol.x - probe.best_x)) <= step + 1e-9
    assert hits >= 5


def test_simplex_agrees_with_independent_lp_solver(rng):
    from scipy.optimize import linprog

    worst = 0.0
    for k in range(30):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        Q = 0.5 * (A + A.T)
        f = rng.standard_normal(n) * (3.0 if k % 3 == 0 else 0.7)
        lo = -rng.uniform(0.5, 2.0, n)
        up = rng.uniform(0.5, 2.0, n)
        lp = rx.build_rlt(Q, f, lo, up)
        sol = rx.solve_lp_small(lp)
        res = linprog(
            lp.obj,
            A_ub=-lp.rows,
            b_ub=-lp.rhs,
            bounds=[(lp.lower[i], lp.upper[i]) for i in range(n)]
            + [(None, None)] * len(lp.pairs),
            method="highs",
        )
        assert res.status == 0
        worst = max(worst, abs(sol.value - res.fun))
    assert worst <= 1e-9


def test_simplex_zero_objective():
    lp = rx.build_rlt(np.zeros((1, 1)), np.zeros(1), [-1.0], [1.0])
    sol = rx.solve_lp_small(lp)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_simplex_infeasible_contradictory_rows():
    lp = rx.build_rlt(np.zeros((1, 1)), np.zeros(1), [-1.0], [1.0],
                      extra_rows=[(np.array([1.0]), 2.0)])  # x >= 2 inside [-1, 1]
    with pytest.raises(Infeasible):
        rx.solve_lp_small(lp)


def test_simplex_unbounded_direct():
    with pytest.raises(Unbounded):
        rx._simplex_min(np.array([-1.0, 0.0]), np.zeros((1, 2)), np.array([1.0]))


def test_lp_variable_guard():
    with pytest.raises(TooLarge):
        rx.solve_lp_small(rx.build_rlt(np.eye(11), np.zeros(11),
                                       -np.ones(11), np.ones(11)))


def test_rlt_export_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    lp = rx.build_rlt(0.5 * (A + A.T), rng.standard_normal(3),
                      -np.ones(3), 2.0 * np.ones(3))
    path = tmp_path / "r.lp"
    rx.export_rlt_lp(lp, path)
    back = rx.parse_rlt_lp(path)
    assert lp.equals(back)
    first = path.read_bytes()
    rx.export_rlt_lp(lp, path)
    assert path.read_bytes() == first


def test_rlt_export_empty_objective(tmp_path):
    lp = rx.build_rlt(np.zeros((1, 1)), np.zeros(1), [0.0], [1.0])
    path = tmp_path / "z.lp"
    rx.export_rlt_lp(lp, path)
    assert rx.parse_rlt_lp(path).equals(lp)


# ------------------------------------------------- pinned bytes and values
#
# Exact bytes and values of the exports and LP answers, recorded before the
# product rows and the simplex pivot were written as array operations; a
# change to either must keep them.  The LP values go through BLAS
# matrix-vector products, so a BLAS that sums in another order may move
# their last digits.

README_WELL = {"n": 1, "variables": "continuous", "f": [0.5],
               "terms": [{"kind": "quartic", "alpha": 1.0, "beta": -2.0, "factor": [[1.0]]}]}
BOX3 = dict(Q=np.array([[1.0, -2.0, 0.5], [-2.0, 0.0, 1.5], [0.5, 1.5, -1.0]]),
            f=[1.0, -0.5, 2.0], lower=[-1.0, -2.0, 0.0], upper=[1.0, 0.5, 3.0],
            extra_rows=[(np.array([1.0, 1.0, -1.0]), -1.5)])
BOX4 = dict(Q=np.array([[1.0, -2.0, 0.5, 0.0], [-2.0, 0.0, 1.5, -1.0],
                        [0.5, 1.5, -1.0, 0.25], [0.0, -1.0, 0.25, 2.0]]),
            f=[0.3, -0.7, 0.2, 1.1], lower=[-1.0, -2.0, 0.0, -0.5], upper=[1.0, 0.5, 3.0, 1.5],
            extra_rows=[(np.array([1.0, -1.0, 0.5, 2.0]), 0.75)])


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_exports_match_pinned_bytes(tmp_path):
    from canondual import model

    rx.export_sdp(QIP2.to_problem(), tmp_path / "q.dat-s")
    rx.export_sdp(model.load_problem(README_WELL), tmp_path / "w.dat-s")
    rx.export_rlt_lp(rx.build_rlt(QIP2.Q, QIP2.f, -np.ones(2), np.ones(2)), tmp_path / "q.lp")
    rx.export_rlt_lp(rx.build_rlt(**BOX3), tmp_path / "b.lp")
    assert {name: _sha256(tmp_path / name) for name in ("q.dat-s", "w.dat-s", "q.lp", "b.lp")} == {
        "q.dat-s": "4b02162825ea925f8e4ebd436fb5b1e87211fe2ceede901cb18d4bd3f334693d",
        "w.dat-s": "61b655678d8e65f454c07d2ff5d69f1948c72ee4ccde1bc3c823cb24a26a4dbf",
        "q.lp": "e45c55c4e69c17a5bbe3719d9437ff9bb667601c6eccff404e21d60c52c7372c",
        "b.lp": "86aa0e3216fe707cae3a2e475dd6b0fbf4f293c2d8f443d545e0dd76a376826b",
    }


def test_lp_values_match_pinned():
    sol = rx.solve_lp_small(rx.build_rlt(**BOX3))
    assert sol.value == -7.999999999999998
    assert sol.x.tolist() == [0.9999999999999984, 0.4999999999999982, 2.9999999999999964]
    sol = rx.solve_lp_small(rx.build_rlt(**BOX4))
    assert sol.value == -20.774999999999974
    assert sol.x.tolist() == [-0.9999999999999929, -1.9999999999999971, 2.999999999999995,
                              -0.4999999999999908]
    assert sol.xi.tolist() == [0.9999999999999927, 1.999999999999997, -2.999999999999976,
                               0.5000000000000022, 3.999999999999993, -5.99999999999999,
                               0.9999999999999929, 8.999999999999993, -1.4999999999999902,
                               0.24999999999999323]
