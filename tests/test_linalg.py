import numpy as np
import pytest
import scipy.linalg

from canondual import linalg
from canondual.errors import InvalidMatrix


def random_sym(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def test_eigh_identity():
    d = linalg.eigh(np.eye(2))
    assert np.allclose(d.eigvals, [1.0, 1.0])
    assert np.allclose(d.eigvecs @ d.eigvecs.T, np.eye(2), atol=1e-12)


def test_eigh_diagonal():
    d = linalg.eigh(np.diag([-2.0, 3.0]))
    assert np.allclose(d.eigvals, [-2.0, 3.0])


def test_eigh_offdiagonal_closed_form():
    # characteristic polynomial of [[0,1],[1,0]] is t^2 - 1
    d = linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.eigvals, [-1.0, 1.0], atol=1e-12)


def test_check_symmetric_rejects_nonfinite():
    # eigh trusts the package's own matrices; outside ones are checked on entry
    with pytest.raises(InvalidMatrix):
        linalg.check_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        linalg.check_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_check_symmetric_near_the_double_range():
    with pytest.raises(InvalidMatrix):  # the difference is past the double range
        linalg.check_symmetric(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    # 0.5 * (A + A.T) would be inf: each half is taken before the sum
    A = np.full((2, 2), 1e308)
    assert np.array_equal(linalg.check_symmetric(A), A)
    B = np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]])
    assert np.array_equal(linalg.check_symmetric(B), 0.5 * (B + B.T))


def test_eigh_invariants_random_corpus():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        M = random_sym(rng, n)
        w, v = linalg.eigh(M)
        normM = np.linalg.norm(M, "fro")
        assert np.all(np.diff(w) >= -1e-12)
        assert np.linalg.norm((v * w) @ v.T - M, "fro") <= 1e-9 * (1.0 + normM)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
        # agreement with an independent solver
        assert np.allclose(w, scipy.linalg.eigh(M, eigvals_only=True),
                           atol=1e-9 * (1.0 + normM))


def pseudoinverse(M):
    """The pseudoinverse of M, a column of the identity at a time."""
    decomp = linalg.eigh(M)
    return np.column_stack([linalg.apply_pinv(decomp, e) for e in np.eye(len(M))])


def test_pinv_examples():
    assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3))
    M = np.array([[4.0, 1.0], [1.0, 1.0]])  # det 3, exact inverse known
    assert np.allclose(pseudoinverse(M), np.array([[1.0, -1.0], [-1.0, 4.0]]) / 3.0, atol=1e-12)
    assert np.array_equal(pseudoinverse(np.zeros((2, 2))), np.zeros((2, 2)))


def test_pinv_moore_penrose_axioms_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        M = random_sym(rng, n)
        if rng.random() < 0.3:
            # force rank deficiency
            w, v = np.linalg.eigh(M)
            w[: max(1, n // 2)] = 0.0
            M = (v * w) @ v.T
            M = 0.5 * (M + M.T)
        P = pseudoinverse(M)
        scale = 1.0 + np.linalg.norm(M)
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * scale
        assert np.linalg.norm(M @ P - (M @ P).T) <= 1e-8 * scale
        assert np.linalg.norm(P @ M - (P @ M).T) <= 1e-8 * scale
