import numpy as np
import pytest
import scipy.linalg

from canondual import linalg
from canondual.errors import InvalidMatrix, RangeViolation
from canondual.linalg import PsdClass


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
    with pytest.raises(InvalidMatrix):
        linalg.psd_classify(np.array([[4.0, 1.0], [1.0, np.nan]]))


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


def test_pinv_examples():
    assert np.allclose(linalg.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(linalg.pinv(np.eye(3)), np.eye(3))
    M = np.array([[4.0, 1.0], [1.0, 1.0]])  # det 3, exact inverse known
    assert np.allclose(linalg.pinv(M), np.array([[1.0, -1.0], [-1.0, 4.0]]) / 3.0, atol=1e-12)
    assert np.allclose(linalg.pinv(np.zeros((2, 2))), np.zeros((2, 2)))


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
        P = linalg.pinv(M)
        scale = 1.0 + np.linalg.norm(M)
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * scale
        assert np.linalg.norm(M @ P - (M @ P).T) <= 1e-8 * scale
        assert np.linalg.norm(P @ M - (P @ M).T) <= 1e-8 * scale


def test_psd_classify_examples():
    assert linalg.psd_classify(np.eye(2)) is PsdClass.POSITIVE_DEFINITE
    assert linalg.psd_classify(np.diag([1.0, -1.0])) is PsdClass.INDEFINITE
    assert linalg.psd_classify(np.diag([2.0, 0.0])) is PsdClass.POSITIVE_SEMIDEFINITE_SINGULAR
    assert linalg.psd_classify(-np.eye(3)) is PsdClass.NEGATIVE_DEFINITE
    assert linalg.psd_classify(np.diag([-2.0, 0.0])) is PsdClass.NEGATIVE_SEMIDEFINITE_SINGULAR


def test_psd_classify_mirror_property():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        M = random_sym(rng, n)
        if rng.random() < 0.4:
            w, v = np.linalg.eigh(M)
            w[: n // 2] = np.abs(w[: n // 2])
            M = (v * w) @ v.T
            M = 0.5 * (M + M.T)
        assert linalg.psd_classify(-M) is linalg.MIRROR_CLASS[linalg.psd_classify(M)]


def test_solve_in_range():
    assert np.allclose(linalg.solve_in_range(np.eye(2), [3.0, 0.0]), [3.0, 0.0])
    x = linalg.solve_in_range(np.array([[4.0, 1.0], [1.0, 1.0]]), [3.0, 0.0])
    assert np.allclose(x, [1.0, -1.0], atol=1e-10)
    with pytest.raises(RangeViolation):
        linalg.solve_in_range(np.diag([1.0, 0.0]), [0.0, 1.0])
