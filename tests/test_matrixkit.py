import math
import re

import numpy as np
import pytest

from stabkit import ExpertPolicy, analytic_ndim, second_order_coefficients
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
        # numpy would upcast the bool to a number; the message names the bool
        assert np.asarray(values).dtype == np.float64
        for coerce in (mk.as_matrix, mk.as_vector):
            with pytest.raises(ParameterError) as info:
                coerce(values, "M")
            assert str(info.value) in ("M must hold numbers, got True",
                                       "M must hold numbers, got False")

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

    @pytest.mark.parametrize("low, high", [(-3, 3), (-323, -307), (-323, 307)])
    def test_plain_formula_bit_for_bit_where_the_sum_is_finite(self, low, high):
        # entries of 10**low to 10**high: normal, subnormal, then both mixed
        rng = np.random.default_rng(high - low)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            s = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(low, high, size=(n, n))
            want = 0.5 * (s + s.T)
            assert np.isfinite(want).all()
            assert mk.symmetric_part(s).tobytes() == want.tobytes()
            assert mk.check_symmetric(want).tobytes() == want.tobytes()

    def test_halves_first_where_the_sum_overflows(self):
        s = np.array([[1.5e308, 1e308], [1.2e308, -1.0]])
        half = 0.5 * 1e308 + 0.5 * 1.2e308
        assert np.array_equal(mk.symmetric_part(s), [[1.5e308, half], [half, -1.0]])

    def test_check_symmetric_where_the_sum_overflows(self):
        s = np.array([[1.5e308, 0.0], [0.0, 1.0]])
        assert mk.check_symmetric(s).tobytes() == s.tobytes()


class TestSymmetryTolerance:
    def test_silently_symmetrizes_tiny_asymmetry(self):
        s = np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]])
        out = mk.check_symmetric(s)
        assert np.array_equal(out, out.T)
        assert np.allclose(out, s, rtol=0.0, atol=1e-14)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(AsymmetricMatrixError):
            mk.check_symmetric([[1.0, 2.0], [0.0, 1.0]])

    def test_policy_symmetrizes_sigma(self):
        policy = ExpertPolicy(K=np.eye(2), Sigma=[[1.0, 1e-14], [0.0, 1.0]])
        assert np.array_equal(policy.Sigma, [[1.0, 5e-15], [5e-15, 1.0]])


def _ndim_margins(a, k, sigma, b=None, g=1.0, alpha=1.0):
    """(gain_vs_plant, closed_loop) margins and the label of ``analytic_ndim``."""
    b = np.eye(len(a)) if b is None else b
    verdict = analytic_ndim(a, b, k, sigma, g, alpha)
    return verdict.margins["gain_vs_plant"], verdict.margins["closed_loop"], verdict.label


def _oracle_margins(a, b, k, sigma, g, alpha):
    """The same margins from ``numpy.linalg`` directly."""
    precision = g * g * alpha * np.linalg.inv(sigma)
    precision = 0.5 * (precision + precision.T)
    closed_loop = precision @ (a - b @ k)
    gain = np.linalg.eigvalsh(precision)[0] - np.linalg.eigvalsh(0.5 * (a + a.T))[-1]
    return gain, -np.linalg.eigvalsh(0.5 * (closed_loop + closed_loop.T))[-1]


class TestVerdictEigenvalues:
    """The extreme eigenvalues of sym(A), of the precision P and of
    sym(P (A - B K)), as the N-D verdict reads them."""

    def test_reads_the_symmetric_part_of_a(self):
        # sym([[0, 2], [0, 0]]) = [[0, 1], [1, 0]]; P = 2 I
        gain, cl, _ = _ndim_margins([[0.0, 2.0], [0.0, 0.0]], np.eye(2), 0.5 * np.eye(2))
        # sym(2 (A - I)) = [[-2, 2], [2, -2]] has eigenvalues -4 and 0
        assert np.allclose([gain, cl], [2.0 - 1.0, 0.0], atol=1e-12)

    def test_matches_numpy_oracle(self):
        for _ in range(30):
            n = int(RNG.integers(2, 13))
            a, k = RNG.normal(size=(n, n)), RNG.normal(size=(n, n))
            b = RNG.normal(size=(n, n)) + n * np.eye(n)
            root = RNG.normal(size=(n, n))
            sigma = mk.symmetric_part(root @ root.T + n * np.eye(n))
            g, alpha = RNG.uniform(0.5, 2.0, size=2)
            gain, cl, _ = _ndim_margins(a, k, sigma, b=b, g=g, alpha=alpha)
            want = _oracle_margins(a, b, k, sigma, g, alpha)
            scale = max(1.0, *np.abs(want))
            assert np.allclose([gain, cl], want, rtol=0.0, atol=1e-10 * scale)

    def test_matches_oracle_at_n16(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            a, k = rng.normal(size=(16, 16)) * 5, rng.normal(size=(16, 16))
            sigma = mk.symmetric_part(np.diag(rng.uniform(0.5, 2.0, size=16)))
            gain, cl, _ = _ndim_margins(a, k, sigma)
            want = _oracle_margins(a, np.eye(16), k, sigma, 1.0, 1.0)
            assert np.allclose([gain, cl], want, rtol=0.0, atol=1e-10 * max(np.abs(want)))

    def test_identity_is_exact(self):
        gain, cl, label = _ndim_margins(np.eye(16), 2.0 * np.eye(16), np.eye(16))
        assert gain == 0.0 and cl == 1.0
        assert label == "marginal"

    def test_where_the_symmetric_sum_overflows(self):
        # 1.5e308 + 1.5e308 overflows; the symmetric part of A is A itself
        gain, cl, label = _ndim_margins([[1.5e308, 0.0], [0.0, 1.0]], np.eye(2), np.eye(2))
        assert gain == 1.0 - 1.5e308 and cl == -1.5e308
        assert label == "inconclusive"


def _policy_accepts(sigma) -> bool:
    """Whether ``ExpertPolicy`` takes ``sigma`` as positive definite."""
    try:
        ExpertPolicy(K=np.eye(len(sigma)), Sigma=sigma)
    except ParameterError:
        return False
    return True


class TestIsPositiveDefinite:
    def test_identity(self):
        assert _policy_accepts(np.eye(4))

    def test_indefinite(self):
        # eigenvalues -1 and 3 by the closed form
        assert not _policy_accepts([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_matrix_rejected(self):
        assert not _policy_accepts(np.zeros((3, 3)))

    def test_agrees_with_min_eigenvalue(self):
        for _ in range(100):
            n = int(RNG.integers(1, 9))
            s = mk.symmetric_part(RNG.normal(size=(n, n)))
            lam_min = np.linalg.eigvalsh(s)[0]
            deadband = 1e-10 * max(1.0, float(np.abs(np.diag(s)).max()))
            if abs(lam_min) <= deadband:
                continue
            assert _policy_accepts(s) == (lam_min > 0)

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


class TestSingularityRule:
    def test_sigma_inverse(self):
        policy = ExpertPolicy(K=np.eye(2), Sigma=np.diag([2.0, 4.0]))
        assert np.allclose(policy.sigma_inv, np.diag([0.5, 0.25]))
        policy = ExpertPolicy(K=np.eye(2), Sigma=[[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(policy.sigma_inv, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0)

    def test_sigma_inverse_residual_bound(self):
        for _ in range(40):
            n = int(RNG.integers(1, 13))
            a = RNG.normal(size=(n, n))
            s = a @ a.T + n * np.eye(n)
            inv = ExpertPolicy(K=np.eye(n), Sigma=s).sigma_inv
            assert np.max(np.abs(s @ inv - np.eye(n))) <= 1e-9

    def test_sigma_inverse_round_trip(self):
        for _ in range(40):
            n = int(RNG.integers(1, 13))
            a = RNG.normal(size=(n, n))
            s = mk.symmetric_part(a @ a.T + n * np.eye(n))
            inv = mk.symmetric_part(ExpertPolicy(K=np.eye(n), Sigma=s).sigma_inv)
            back = ExpertPolicy(K=np.eye(n), Sigma=inv).sigma_inv
            assert np.max(np.abs(back - s)) <= 1e-8 * np.max(np.abs(s))

    def test_rank_deficient_b_raises(self):
        with pytest.raises(SingularMatrixError):
            analytic_ndim(np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.eye(2), np.eye(2), 1.0, 1.0)

    def test_zero_b_raises(self):
        with pytest.raises(SingularMatrixError):
            analytic_ndim(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0, 1.0)
        with pytest.raises(SingularMatrixError):
            second_order_coefficients(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2))

    def test_non_square_b_raises(self):
        with pytest.raises(DimensionError, match=re.escape("B must be square")):
            second_order_coefficients(np.eye(2), [[1.0], [0.5]], [[1.0, 0.0]], [[0.5]])


class TestLapackContracts:
    def test_pd_pivot_rule_is_relative(self):
        assert not _policy_accepts(np.diag([1.0, 1e-13]))
        assert _policy_accepts(np.diag([1.0, 1e-11]))

    def test_pd_pivot_rule_scales_with_the_diagonal(self):
        # the same pivot ratios, 1e-11 and 1e-13, far from unit scale
        assert _policy_accepts(np.diag([1e-20, 1e-31]))
        assert not _policy_accepts(np.diag([1e20, 1e7]))
        lower = mk.cholesky(np.diag([1e-20, 1e-31]))
        assert np.allclose(lower @ lower.T, np.diag([1e-20, 1e-31]), rtol=1e-15, atol=0.0)
        with pytest.raises(NotPositiveDefiniteError):
            mk.cholesky(np.diag([1e20, 1e7]))

    def test_cholesky_refuses_pivot_below_rule(self):
        with pytest.raises(NotPositiveDefiniteError):
            mk.cholesky(np.diag([1.0, 1e-13]))
