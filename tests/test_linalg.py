import numpy as np
import pytest

from grflab import IllConditionedError
from grflab.linalg import eig_bounds, eigh, eigvalsh, solve_psd_pinv


def test_matches_lapack_oracle(rng_np):
    for n in (2, 5, 20, 40):
        a = rng_np.standard_normal((n, n))
        a = a + a.T
        w, v = eigh(a)
        scale = max(1.0, np.abs(a).max())
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-11 * scale)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-11 * scale)


def test_eigenvalues_sorted(rng_np):
    a = rng_np.standard_normal((12, 12))
    a = a + a.T
    w, _ = eigh(a)
    assert np.all(np.diff(w) >= 0)


def test_zero_and_empty():
    w, v = eigh(np.zeros((3, 3)))
    assert np.array_equal(w, np.zeros(3))
    w, v = eigh(np.zeros((0, 0)))
    assert w.size == 0


def test_diagonal_passthrough():
    w, _ = eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, np.array([-1.0, 2.0, 3.0]))


def test_eig_bounds(rng_np):
    a = rng_np.standard_normal((8, 8))
    a = a @ a.T
    lo, hi = eig_bounds(a)
    w = np.linalg.eigvalsh(a)
    assert abs(lo - w[0]) < 1e-10 * w[-1] and abs(hi - w[-1]) < 1e-10 * w[-1]


def test_solve_psd_matches_direct(rng_np):
    b = rng_np.standard_normal((6, 6))
    a = b @ b.T + 0.5 * np.eye(6)
    rhs = rng_np.standard_normal(6)
    x = solve_psd_pinv(a, rhs)
    assert np.allclose(a @ x, rhs, atol=1e-10)


def test_solve_refuses_ill_conditioned():
    a = np.diag([1.0, 1e-14])
    with pytest.raises(IllConditionedError):
        solve_psd_pinv(a, np.ones(2))
    with pytest.raises(IllConditionedError):
        solve_psd_pinv(np.zeros((2, 2)), np.ones(2))


def test_stack_matches_single(rng_np):
    a = rng_np.standard_normal((4, 6, 6))
    a = a + a.transpose(0, 2, 1)
    w = eigvalsh(a)
    assert w.shape == (4, 6)
    for i in range(4):
        assert np.allclose(w[i], eigh(a[i])[0], atol=1e-12 * np.abs(a[i]).max())


def test_rejects_non_square_and_non_finite():
    for bad in (np.zeros(3), np.zeros((2, 3)), np.array([[1.0, np.nan], [np.nan, 1.0]]),
                np.array([[np.inf]])):
        with pytest.raises(ValueError):
            eigh(bad)
        with pytest.raises(ValueError):
            eigvalsh(bad)
