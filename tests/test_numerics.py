import warnings

import numpy as np
import pytest
import scipy.linalg

from dyngame.errors import InvalidGameError, SingularSystemError
from dyngame.numerics import solve_dense

from conftest import psd_matrix, rng_for
from reference_formulations import (DefinitenessError, classify_definiteness,
                                    pushthrough_residuals, symmetrize)


class TestSolveDense:
    def test_identity(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(solve_dense(np.eye(2), B), B)

    def test_diagonal_backsubstitution(self):
        # hand computation: diag(2,4) X = (2,4)' -> X = (1,1)'
        X = solve_dense(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
        assert np.allclose(X, [1.0, 1.0], atol=1e-15)

    def test_singular_raises_with_context(self):
        with pytest.raises(SingularSystemError, match="stage 3 gain system"):
            solve_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2),
                        context="stage 3 gain system")

    def test_residual_contract_random(self):
        rng = rng_for(5)
        for _ in range(50):
            q = int(rng.integers(1, 8))
            A = rng.standard_normal((q, q)) + 3 * np.eye(q)
            X0 = rng.standard_normal((q, 3))
            X = solve_dense(A, A @ X0)
            assert np.abs(X - X0).max() <= 1e-9 * (1 + np.abs(X0).max())

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidGameError):
            solve_dense(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("rhs", ["matrix", "vector", "read-only"])
    def test_matches_scipy_lu_bit_for_bit(self, rhs):
        # solve_dense calls the LAPACK routines behind lu_factor/lu_solve
        # directly, so the solution must be identical, not merely close
        rng = rng_for(11)
        for _ in range(50):
            q = int(rng.integers(1, 12))
            A = rng.standard_normal((q, q)) + 2 * np.eye(q)
            B = rng.standard_normal(q) if rhs == "vector" else rng.standard_normal((q, 3))
            if rhs == "read-only":
                A.flags.writeable = B.flags.writeable = False
            expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), B)
            X = solve_dense(A, B)
            assert X.shape == B.shape
            assert np.array_equal(X, expected)

    def test_exact_zero_pivot_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="singular"):
                solve_dense(np.zeros((2, 2)), np.ones(2))

    def test_empty_system_is_singular(self):
        with pytest.raises(SingularSystemError, match="singular"):
            solve_dense(np.zeros((0, 0)), np.zeros(0))

    def test_nan_right_hand_side_raises(self):
        # a NaN residual must fail the residual bound, not slip past it
        with pytest.raises(SingularSystemError, match="residual"):
            solve_dense(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([np.nan, 1.0]))


class TestClassifyDefiniteness:
    def test_identity_pd(self):
        assert classify_definiteness(np.eye(3)).classification == "PD"

    def test_zero_psd(self):
        d = classify_definiteness(np.zeros((2, 2)))
        assert d.classification == "PSD"
        assert d.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_indefinite(self):
        assert classify_definiteness(np.diag([1.0, -1.0])).classification == "indefinite"

    def test_repairs_tiny_asymmetry(self):
        M = np.eye(2)
        M[0, 1] = 1e-12
        assert classify_definiteness(M).classification == "PD"

    def test_rejects_gross_asymmetry(self):
        M = np.eye(2)
        M[0, 1] = 0.5
        with pytest.raises(InvalidGameError):
            classify_definiteness(M)

    def test_pd_preserved_under_congruence_shift(self):
        # A + C'BC stays PD for PD A and PSD B, any C.
        rng = rng_for(9)
        for _ in range(100):
            q, r = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = psd_matrix(rng, q, shift=0.5)
            Bm = psd_matrix(rng, r)
            C = rng.standard_normal((r, q))
            assert classify_definiteness(A + C.T @ Bm @ C).classification == "PD"


class TestSymmetrize:
    def test_averages_within_tolerance(self):
        M = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        S = symmetrize(M)
        assert np.array_equal(S, S.T)


class TestPushthrough:
    def test_zero_second_factor(self):
        assert pushthrough_residuals(np.eye(3), np.zeros((3, 2))) == (0.0, 0.0)

    def test_scalar_half(self):
        # both sides equal 1/2 for A = B = 1
        r1, r2 = pushthrough_residuals(np.array([[1.0]]), np.array([[1.0]]))
        assert r1 == pytest.approx(0.0, abs=1e-15)
        assert r2 == pytest.approx(0.0, abs=1e-15)

    def test_random_pairs_small_residual(self):
        rng = rng_for(7)
        A = psd_matrix(rng, 3, shift=0.5)
        B = rng.standard_normal((3, 2))
        r1, r2 = pushthrough_residuals(A, B)
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_requires_pd(self):
        with pytest.raises(DefinitenessError):
            pushthrough_residuals(np.diag([1.0, -1.0]), np.eye(2))
