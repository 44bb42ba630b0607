import warnings

import numpy as np
import pytest
import scipy.linalg

from dyngame.errors import InvalidGameError, SingularSystemError
from dyngame.numerics import factor, solve_dense

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


class TestStackedSolve:
    """A stack A (N, k, k) solves each matrix on its own, and the pivot and
    residual tests judge each matrix against its own norm."""

    @staticmethod
    def draw(seed, N, k, r):
        rng = rng_for(seed)
        return (rng.standard_normal((N, k, k)) + 2 * np.eye(k), rng.standard_normal((N, k, r)))

    @pytest.mark.parametrize("k, r", [(1, 1), (3, 4), (6, 7), (9, 11)])
    def test_stack_equals_each_matrix_bit_for_bit(self, k, r):
        A, B = self.draw(k, 5, k, r)
        X = solve_dense(A, B)
        assert X.shape == B.shape
        lu = factor(A)
        assert np.array_equal(lu.solve(B), X)
        X_vec = solve_dense(A, B[..., 0])
        for i in range(len(A)):
            assert np.array_equal(X[i], solve_dense(A[i], B[i]))
            assert np.array_equal(X_vec[i], solve_dense(A[i], B[i, :, 0]))

    @pytest.mark.parametrize("k, r", [(6, 7), (9, 11)])
    def test_stack_of_one_equals_the_single_matrix_solve(self, k, r):
        A, B = self.draw(k + 100, 1, k, r)
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A[0]), B[0])
        assert np.array_equal(solve_dense(A[0], B[0]), expected)
        assert np.array_equal(solve_dense(A, B)[0], expected)
        assert np.array_equal(factor(A[0]).solve(B[0]), expected)

    def test_singular_to_its_own_norm_fails_beside_well_scaled_matrices(self):
        # pivot 1e-33 against the matrix's own norm 1e-20; the others are I
        A = np.stack([np.eye(2), np.diag([1e-20, 1e-33]), np.eye(2)])
        with pytest.raises(SingularSystemError, match="matrix 1: matrix is singular"):
            solve_dense(A, np.ones((3, 2)), context=lambda i: f"matrix {i}")
        with pytest.raises(SingularSystemError, match="matrix 1: matrix is singular"):
            factor(A, context=lambda i: f"matrix {i}")

    def test_small_norm_matrix_passes_beside_one_of_norm_1e12(self):
        # judged against the stack's largest norm, 1e-3 I would be singular
        A = np.stack([1e12 * np.eye(3), 1e-3 * np.eye(3)])
        B = np.ones((2, 3, 2))
        X = solve_dense(A, B)
        assert np.array_equal(X[0], np.full((3, 2), 1e-12))
        assert np.array_equal(X[1], np.full((3, 2), 1e3))

    def test_nan_in_one_right_hand_side_fails(self):
        A, B = self.draw(3, 4, 3, 2)
        B[2, 1, 0] = np.nan
        with pytest.raises(SingularSystemError, match="lane 2: solution residual nan"):
            solve_dense(A, B, context=lambda i: f"lane {i}")
        with pytest.raises(SingularSystemError, match="lane 2: solution residual nan"):
            factor(A).solve(B, context=lambda i: f"lane {i}")

    def test_error_names_the_largest_failing_index(self):
        A, B = self.draw(4, 6, 2, 1)
        A[1] = A[4] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(SingularSystemError, match="stage 4:") as failed:
            solve_dense(A, B, context=lambda t: f"stage {t}")
        assert failed.value.context == "stage 4"
        A, B = self.draw(5, 6, 2, 1)
        B[0, 0] = B[3, 1] = np.nan
        with pytest.raises(SingularSystemError, match="stage 3:"):
            solve_dense(A, B, context=lambda t: f"stage {t}")

    def test_a_string_context_names_the_stack(self):
        A = np.stack([np.eye(2), np.ones((2, 2))])
        with pytest.raises(SingularSystemError, match="stage 3 gain system"):
            solve_dense(A, np.ones((2, 2)), context="stage 3 gain system")

    def test_right_hand_sides_must_fit_the_stack(self):
        A, B = self.draw(6, 3, 2, 2)
        with pytest.raises(InvalidGameError, match="does not fit"):
            solve_dense(A, B[:2])
        with pytest.raises(InvalidGameError, match="does not fit"):
            factor(A).solve(B[0])


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
