import numpy as np
import pytest

from canondual import dual, linalg, oracle, relaxations as rx
from canondual.errors import DimensionMismatch, TooLarge, UnsupportedTerm
from canondual.integer import QipInstance, qip_dual_solve
from canondual.model import CanonicalTerm, Problem, TermKind

from conftest import double_well, highs_rlt, parse_rlt_lp, parse_sdpa, random_qip, solve_rlt

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
        # the least feasible epigraph variable is half the quadratic form, and
        # the epigraph objective there is the enumerated optimum
        sigma = rep.sigma_star
        G = inst.Q + 2.0 * np.diag(sigma)
        g_star = 0.5 * float(inst.f @ np.linalg.solve(G, inst.f))
        assert rx.schur_psd_check(G, inst.f, g_star)
        assert not rx.schur_psd_check(G, inst.f, g_star - 1e-6 * (1.0 + abs(g_star)))
        value = g_star + dual.conjugate_total(inst.to_problem(), sigma)
        assert -value == pytest.approx(oracle.enumerate_signs(inst).best_value, rel=1e-6)
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
    back = parse_sdpa(path)
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
    assert parse_sdpa(path) == data


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
    _, xi, value = solve_rlt(lp)
    assert value == pytest.approx(-0.5, abs=1e-9)
    assert xi[0] == pytest.approx(1.0, abs=1e-9)


def test_rlt_lower_bound_property(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        Q = 0.5 * (A + A.T)
        f = rng.standard_normal(n)
        lo, up = -np.ones(n), np.ones(n)
        lp = rx.build_rlt(Q, f, lo, up)
        _, _, value = solve_rlt(lp)
        p = Problem(n=n, terms=QipInstance(Q=Q, f=f).to_problem().terms, f=f)
        probe = oracle.grid_multistart(p, np.stack([lo, up], axis=1), grid_points=11)
        assert value <= probe.best_value + 1e-7


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
        x, xi, _ = solve_rlt(lp)
        # xi follows pair_index, the row-major upper triangle
        if np.max(np.abs(xi - np.outer(x, x)[np.triu_indices(n)])) > 1e-8:
            continue
        hits += 1
        p = Problem(n=n, terms=QipInstance(Q=Q, f=f).to_problem().terms, f=f)
        probe = oracle.grid_multistart(p, np.stack([lo, up], axis=1), grid_points=41)
        step = 2.0 / 40.0
        assert np.max(np.abs(x - probe.best_x)) <= step + 1e-9
    assert hits >= 5


def test_simplex_zero_objective():
    lp = rx.build_rlt(np.zeros((1, 1)), np.zeros(1), [-1.0], [1.0])
    _, _, value = solve_rlt(lp)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_simplex_infeasible_contradictory_rows():
    lp = rx.build_rlt(np.zeros((1, 1)), np.zeros(1), [-1.0], [1.0],
                      extra_rows=[(np.array([1.0]), 2.0)])  # x >= 2 inside [-1, 1]
    assert highs_rlt(lp).status == 2  # HiGHS: infeasible


def _box(n, lower=-1.0, upper=1.0, extra_rows=()):
    return rx.build_rlt(np.eye(n), np.zeros(n), np.full(n, lower), np.full(n, upper),
                        extra_rows=extra_rows)


@pytest.mark.parametrize("make, error", [
    (lambda: rx.build_rlt(np.eye(2), np.zeros(3), [-1.0, -1.0], [1.0, 1.0]), DimensionMismatch),
    (lambda: rx.build_rlt(np.eye(2), np.zeros(2), [-1.0], [1.0, 1.0]), DimensionMismatch),
    (lambda: _box(2, upper=np.inf), DimensionMismatch),
    (lambda: _box(2, lower=1.0, upper=-1.0), DimensionMismatch),
    (lambda: _box(2, extra_rows=[(np.ones(3), 0.0)]), DimensionMismatch),
    (lambda: _box(50), TooLarge),  # 5,050 bound-factor rows
    (lambda: _box(10, extra_rows=[(np.ones(10), 0.0)] * 240), TooLarge),  # 210 + 21 per row
    (lambda: rx.sdpa_data(double_well(0.5, alpha=-1.0)), UnsupportedTerm),
], ids=["f-length", "box-length", "box-infinite", "box-reversed", "extra-row-length",
        "bound-rows-cap", "extra-rows-cap", "quartic-negative-alpha"])
def test_constructions_refuse_what_they_cannot_build(make, error):
    with pytest.raises(error):
        make()


def test_rlt_export_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    lp = rx.build_rlt(0.5 * (A + A.T), rng.standard_normal(3),
                      -np.ones(3), 2.0 * np.ones(3))
    path = tmp_path / "r.lp"
    rx.export_rlt_lp(lp, path)
    back = parse_rlt_lp(path)
    assert lp.equals(back)
    first = path.read_bytes()
    rx.export_rlt_lp(lp, path)
    assert path.read_bytes() == first


def test_rlt_export_empty_objective(tmp_path):
    lp = rx.build_rlt(np.zeros((1, 1)), np.zeros(1), [0.0], [1.0])
    path = tmp_path / "z.lp"
    rx.export_rlt_lp(lp, path)
    assert parse_rlt_lp(path).equals(lp)


# ------------------------------------------------- pinned bytes and values
#
# Exact bytes of the exports, recorded before the product rows were written
# as array operations; a change to them must keep the bytes.  The LP answers
# are the exact optima of the two boxes, which HiGHS reaches to within 1e-9;
# the last bits are the LP solver's, not the relaxation's, so they are not
# pinned.

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
    x, _, value = solve_rlt(rx.build_rlt(**BOX3))
    assert value == pytest.approx(-8.0, abs=1e-9)
    assert x == pytest.approx([1.0, 0.5, 3.0], abs=1e-9)
    x, xi, value = solve_rlt(rx.build_rlt(**BOX4))
    assert value == pytest.approx(-20.775, abs=1e-9)
    assert x == pytest.approx([-1.0, -2.0, 3.0, -0.5], abs=1e-9)
    assert xi == pytest.approx([1.0, 2.0, -3.0, 0.5, 4.0, -6.0, 1.0, 9.0, -1.5, 0.25], abs=1e-9)
