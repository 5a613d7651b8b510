import math
import re

import numpy as np
import pytest

from stabkit import matrixkit as mk
from stabkit.errors import (
    AsymmetricMatrixError,
    DimensionError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParameterError,
    SingularMatrixError,
)

RNG = np.random.default_rng(1234)


class TestCoercions:
    @pytest.mark.parametrize("value", [2, 2.5, np.float64(2.5), np.int64(2), np.float32(0.5)])
    def test_as_real_accepts_numbers(self, value):
        out = mk.as_real(value, "x")
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, [1.0]])
    def test_as_real_refuses_non_numbers(self, value):
        with pytest.raises(ParameterError, match=re.escape(f"x must be a number, got {value!r}")):
            mk.as_real(value, "x")

    def test_as_real_refuses_integers_beyond_float_range(self):
        with pytest.raises(ParameterError, match="x is an integer beyond the float range"):
            mk.as_real(10**400, "x")
        assert mk.as_real(10**308, "x") == 1e308

    @pytest.mark.parametrize("value", [7, 7.0, np.int64(7), np.float64(7.0), 2**70])
    def test_as_whole_accepts_whole_values(self, value):
        out = mk.as_whole(value, "n")
        assert type(out) is int and out == value

    @pytest.mark.parametrize("value", [1.9, math.inf, math.nan, True, "2", None])
    def test_as_whole_refuses_everything_else(self, value):
        with pytest.raises(ParameterError, match="n must be a whole number"):
            mk.as_whole(value, "n")

    @pytest.mark.parametrize(
        "values, dtype", [("2", "<U1"), ([True, False], "bool"), ([1.0, None], "object")]
    )
    def test_arrays_must_hold_numbers(self, values, dtype):
        for coerce in (mk.as_matrix, mk.as_vector):
            with pytest.raises(ParameterError) as info:
                coerce(values, "M")
            assert str(info.value) == f"M must hold numbers, got dtype {dtype}"

    @pytest.mark.parametrize(
        "values", [[1.0, True], [[2.0, True], [0.0, 1.0]], ([1.0], (np.bool_(False),))]
    )
    def test_bool_among_numbers_is_refused(self, values):
        # numpy would upcast the bool to a number
        assert np.asarray(values).dtype == np.float64
        for coerce in (mk.as_matrix, mk.as_vector):
            with pytest.raises(ParameterError, match="M must hold numbers, got dtype float64"):
                coerce(values, "M")

    def test_integer_arrays_become_float(self):
        out = mk.as_matrix(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert out.dtype == np.float64 and np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])


class TestSymmetricPart:
    def test_identity_fixed_point(self):
        assert np.array_equal(mk.symmetric_part(np.eye(3)), np.eye(3))

    def test_forced_by_definition(self):
        out = mk.symmetric_part([[0.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_symmetric_inputs_unchanged(self):
        s = np.array([[2.0, -1.5], [-1.5, 4.0]])
        assert np.array_equal(mk.symmetric_part(s), s)

    def test_idempotent_and_exactly_symmetric(self):
        for _ in range(50):
            n = int(RNG.integers(1, 9))
            m = RNG.normal(size=(n, n)) * 10.0 ** RNG.integers(-3, 4)
            s = mk.symmetric_part(m)
            assert np.array_equal(s, s.T)
            assert np.array_equal(mk.symmetric_part(s), s)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mk.symmetric_part(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            mk.symmetric_part([[np.nan, 0.0], [0.0, 0.0]])


class TestEigSym:
    def test_diagonal(self):
        assert np.allclose(mk.eig_sym(np.diag([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_offdiagonal_pair(self):
        # characteristic polynomial lambda^2 - 1 = 0
        assert np.allclose(mk.eig_sym([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0])

    def test_two_by_two(self):
        # (2 - lambda)^2 - 1 = 0  ->  {1, 3}
        assert np.allclose(mk.eig_sym([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0])

    def test_ascending_and_counts(self):
        for _ in range(30):
            n = int(RNG.integers(1, 13))
            s = mk.symmetric_part(RNG.normal(size=(n, n)))
            w = mk.eig_sym(s)
            assert w.shape == (n,)
            assert np.all(np.diff(w) >= -1e-12)

    def test_matches_numpy_oracle(self):
        for _ in range(30):
            n = int(RNG.integers(2, 13))
            s = mk.symmetric_part(RNG.normal(size=(n, n)) * 5)
            expected = np.linalg.eigvalsh(s)
            assert np.allclose(mk.eig_sym(s), expected, atol=1e-10 * max(1, abs(expected).max()))

    def test_silently_symmetrizes_tiny_asymmetry(self):
        s = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
        w = mk.eig_sym(s)
        assert np.allclose(w, [0.0, 2.0], atol=1e-9)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(AsymmetricMatrixError):
            mk.eig_sym([[1.0, 2.0], [0.0, 1.0]])


class TestIsPositiveDefinite:
    def test_identity(self):
        assert mk.is_positive_definite(np.eye(4))

    def test_indefinite(self):
        # eigenvalues -1 and 3 by the closed form
        assert not mk.is_positive_definite([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_matrix_rejected(self):
        assert not mk.is_positive_definite(np.zeros((3, 3)))

    def test_agrees_with_min_eigenvalue(self):
        for _ in range(100):
            n = int(RNG.integers(1, 9))
            s = mk.symmetric_part(RNG.normal(size=(n, n)))
            lam_min = mk.eig_sym(s)[0]
            deadband = 1e-10 * max(1.0, float(np.abs(np.diag(s)).max()))
            if abs(lam_min) <= deadband:
                continue
            assert mk.is_positive_definite(s) == (lam_min > 0)

    def test_cholesky_round_trip(self):
        for _ in range(20):
            n = int(RNG.integers(1, 9))
            a = RNG.normal(size=(n, n))
            s = a @ a.T + n * np.eye(n)
            lower = mk.cholesky(s)
            assert np.allclose(lower @ lower.T, s, atol=1e-10 * n)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            mk.cholesky([[1.0, 2.0], [2.0, 1.0]])


class TestInvert:
    def test_identity(self):
        assert np.allclose(mk.invert(np.eye(3)), np.eye(3))

    def test_diagonal_reciprocals(self):
        assert np.allclose(mk.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_hand_checkable(self):
        assert np.allclose(mk.invert([[1.0, 1.0], [0.0, 1.0]]), [[1.0, -1.0], [0.0, 1.0]])

    def test_residual_bound(self):
        for _ in range(40):
            n = int(RNG.integers(1, 13))
            m = RNG.normal(size=(n, n)) + n * np.eye(n)
            inv = mk.invert(m)
            assert np.max(np.abs(m @ inv - np.eye(n))) <= 1e-9

    def test_round_trip(self):
        for _ in range(40):
            n = int(RNG.integers(1, 13))
            m = RNG.normal(size=(n, n)) + n * np.eye(n)
            back = mk.invert(mk.invert(m))
            assert np.max(np.abs(back - m)) <= 1e-8 * np.max(np.abs(m))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mk.invert(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            mk.invert([[1.0, 2.0], [2.0, 4.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mk.invert(np.ones((2, 3)))


class TestEig2x2:
    def test_complex_pair_positive_real(self):
        # tr = 1, det = 1: roots (1 +- i sqrt(3)) / 2
        hi, lo = mk.eig_2x2([[2.0, 1.0], [-3.0, -1.0]])
        assert hi.real == pytest.approx(0.5, abs=1e-12)
        assert lo.real == pytest.approx(0.5, abs=1e-12)
        assert hi.imag == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert lo.imag == pytest.approx(-math.sqrt(3) / 2, abs=1e-12)

    def test_complex_pair_negative_real(self):
        # tr = -1, det = 3: roots (-1 +- i sqrt(11)) / 2
        hi, lo = mk.eig_2x2([[2.0, 1.0], [-9.0, -3.0]])
        assert hi.real == pytest.approx(-0.5, abs=1e-12)
        assert hi.imag == pytest.approx(math.sqrt(11) / 2, abs=1e-12)
        assert lo == hi.conjugate()

    def test_diagonal(self):
        hi, lo = mk.eig_2x2(np.diag([-3.0, 7.0]))
        assert (hi, lo) == (7.0 + 0j, -3.0 + 0j)

    def test_real_parts_descending(self):
        for _ in range(200):
            m = RNG.normal(size=(2, 2)) * 4
            hi, lo = mk.eig_2x2(m)
            assert hi.real >= lo.real

    def test_trace_and_determinant(self):
        for _ in range(200):
            m = RNG.normal(size=(2, 2)) * 4
            hi, lo = mk.eig_2x2(m)
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            scale = max(1.0, abs(tr), abs(det))
            assert abs((hi + lo).real - tr) <= 1e-12 * scale
            assert abs((hi + lo).imag) <= 1e-12 * scale
            assert abs(hi * lo - det) <= 1e-12 * scale

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            mk.eig_2x2(np.eye(3))


class TestLapackContracts:
    def test_pd_pivot_rule_is_relative(self):
        assert not mk.is_positive_definite(np.diag([1.0, 1e-13]))
        assert mk.is_positive_definite(np.diag([1.0, 1e-11]))

    def test_cholesky_refuses_pivot_below_rule(self):
        with pytest.raises(NotPositiveDefiniteError):
            mk.cholesky(np.diag([1.0, 1e-13]))

    def test_eig_sym_matches_oracle_at_n16(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s = mk.symmetric_part(rng.normal(size=(16, 16)) * 5)
            expected = np.linalg.eigvalsh(s)
            assert np.allclose(mk.eig_sym(s), expected, atol=1e-10 * abs(expected).max())

    def test_eig_sym_identity_is_exact(self):
        w = mk.eig_sym(np.eye(16))
        assert np.all(np.diff(w) >= 0.0)
        assert np.array_equal(w, np.ones(16))
