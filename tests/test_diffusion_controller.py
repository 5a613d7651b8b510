import math

import numpy as np
import pytest

from stabkit import (
    DiffusionParams,
    ExpertPolicy,
    RngStream,
    default_inner_dt,
    denoise_step,
    full_denoise,
    score,
)
from stabkit.errors import ParameterError

RNG = np.random.default_rng(2024)


def scalar_policy(k=3.0, var=1.0):
    return ExpertPolicy(K=[[k]], Sigma=[[var]])


class TestDiffusionParams:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ParameterError):
            DiffusionParams(g=0.0, alpha=1.0)
        with pytest.raises(ParameterError):
            DiffusionParams(g=1.0, alpha=-1.0)
        with pytest.raises(ParameterError):
            DiffusionParams(g=1.0, alpha=1.0, inner_steps=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [("inner_steps", 2.5, "inner_steps must be a whole number"),
         ("stochastic", "false", "stochastic must be true or false"),
         ("g", True, "g must be a number"),
         ("alpha", "1", "alpha must be a number"),
         ("drift", [True], "drift must hold numbers, got dtype bool")],
    )
    def test_rejects_wrong_types(self, field, value, message):
        with pytest.raises(ParameterError, match=message):
            DiffusionParams(**{"g": 1.0, "alpha": 1.0, field: value})

    def test_accepts_numpy_scalars_and_whole_floats(self):
        params = DiffusionParams(g=np.float64(0.5), alpha=np.int64(2), inner_steps=7.0)
        assert (params.g, params.alpha, params.inner_steps) == (0.5, 2.0, 7)
        assert (type(params.g), type(params.alpha), type(params.inner_steps)) == (float, float, int)
        assert DiffusionParams(g=1.0, alpha=1.0, inner_steps=np.int64(3)).inner_steps == 3


class TestRngStream:
    def test_bit_reproducible(self):
        a = RngStream(123).standard_normal(64)
        b = RngStream(123).standard_normal(64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            RngStream(1).standard_normal(8), RngStream(2).standard_normal(8)
        )

    def test_split_takes_continue_the_stream(self):
        whole = RngStream(17).standard_normal(60)
        stream = RngStream(17)
        parts = [stream.standard_normal(size) for size in (5, 20, 35)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


class TestScore:
    def test_vanishes_at_expert_action(self):
        policy = ExpertPolicy(K=RNG.normal(size=(2, 3)), Sigma=np.eye(2) * 0.3)
        e = RNG.normal(size=3)
        u = -(policy.K @ e)
        assert np.allclose(score(policy, e, u), np.zeros(2), atol=1e-12)

    def test_hand_arithmetic_unit_variance(self):
        # -(0 + 3*5) / 1 = -15
        assert score(scalar_policy(3.0, 1.0), [5.0], [0.0]) == pytest.approx([-15.0])

    def test_hand_arithmetic_small_variance(self):
        # -2 / 0.25 = -8
        assert score(scalar_policy(0.0, 0.25), [7.0], [2.0]) == pytest.approx([-8.0])

    def test_affine_scaling(self):
        policy = ExpertPolicy(K=RNG.normal(size=(2, 2)), Sigma=np.eye(2) * 0.5)
        e = RNG.normal(size=2)
        u = RNG.normal(size=2)
        assert np.allclose(
            score(policy, 2.0 * e, 2.0 * u), 2.0 * score(policy, e, u), atol=1e-12
        )


class TestDenoiseStep:
    def test_fixed_point_at_expert_action(self):
        policy = scalar_policy()
        params = DiffusionParams(g=1.0, alpha=1.0)
        u = denoise_step(policy, params, [5.0], [-15.0], dt=0.01)
        assert u == pytest.approx([-15.0], abs=1e-15)

    def test_hand_arithmetic(self):
        # u' = 0 + 1 * (-15) * 1 * 0.01 = -0.15
        policy = scalar_policy(3.0, 1.0)
        params = DiffusionParams(g=1.0, alpha=1.0)
        u = denoise_step(policy, params, [5.0], [0.0], dt=0.01)
        assert u == pytest.approx([-0.15], abs=1e-15)

    def test_gain_equivalence(self):
        # deterministic step equals u - K'(u + K e) dt with K' = g^2 a / s^2
        for _ in range(50):
            g = float(RNG.uniform(0.2, 3.0))
            alpha = float(RNG.uniform(0.2, 4.0))
            var = float(RNG.uniform(0.05, 2.0))
            k = float(RNG.normal())
            e = float(RNG.normal())
            u = float(RNG.normal())
            dt = float(RNG.uniform(1e-4, 0.1))
            policy = scalar_policy(k, var)
            params = DiffusionParams(g=g, alpha=alpha)
            got = denoise_step(policy, params, [e], [u], dt=dt)[0]
            kprime = g * g * alpha / var
            want = u - kprime * (u + k * e) * dt
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_stochastic_requires_rng(self):
        params = DiffusionParams(g=1.0, alpha=1.0, stochastic=True)
        with pytest.raises(ParameterError):
            denoise_step(scalar_policy(), params, [0.0], [0.0], dt=0.01)

    def test_increment_variance_scaling(self):
        # score gain zeroed via K = 0, u = 0: the increment is pure noise with
        # variance alpha g^2 dt; check a 3 standard-error band on the sample
        # variance over 1e5 draws
        n = 100_000
        g, alpha, dt = 1.3, 0.7, 0.01
        policy = scalar_policy(0.0, 1.0)
        params = DiffusionParams(g=g, alpha=alpha, stochastic=True)
        rng = RngStream(5)
        noise = np.array(
            [denoise_step(policy, params, [0.0], [0.0], dt=dt, rng=rng)[0] for _ in range(n)]
        )
        target = alpha * g * g * dt
        sample_var = float(np.var(noise, ddof=1))
        se = target * math.sqrt(2.0 / (n - 1))
        assert abs(sample_var - target) <= 3.0 * se

    def test_brownian_scaling_in_alpha_and_dt(self):
        policy = scalar_policy(0.0, 1.0)
        rng = RngStream(11)
        n = 40_000
        for alpha, dt in [(0.5, 0.01), (2.0, 0.01), (1.0, 0.04)]:
            params = DiffusionParams(g=1.0, alpha=alpha, stochastic=True)
            draws = np.array(
                [denoise_step(policy, params, [0.0], [0.0], dt=dt, rng=rng)[0] for _ in range(n)]
            )
            target = alpha * dt
            sample_var = float(np.var(draws, ddof=1))
            assert abs(sample_var - target) <= 4.0 * target * math.sqrt(2.0 / (n - 1))

    def test_deterministic_when_not_stochastic(self):
        policy = scalar_policy()
        params = DiffusionParams(g=1.0, alpha=2.0)
        a = denoise_step(policy, params, [1.0], [0.5], dt=0.01)
        b = denoise_step(policy, params, [1.0], [0.5], dt=0.01)
        assert np.array_equal(a, b)


class TestDriftTranslation:
    def test_fixed_point_shift(self):
        # constant drift c moves the frozen-state fixed point to
        # -K e + sigma^2 c / (g^2 alpha)
        g, alpha, var, k, c = 1.2, 2.5, 0.4, 3.0, 0.7
        e = 1.5
        policy = scalar_policy(k, var)
        params = DiffusionParams(g=g, alpha=alpha, drift=[c], inner_steps=4000)
        u = full_denoise(policy, params, [e], dt_inner=0.005)
        shift = var * c / (g * g * alpha)
        assert u[0] == pytest.approx(-k * e + shift, abs=1e-9)

    def test_contraction_rate_unchanged(self):
        # the linear recursion's multiplier is drift independent
        g, alpha, var, k = 1.0, 1.0, 0.5, 2.0
        policy = scalar_policy(k, var)
        e, dt = 1.0, 0.01
        base = DiffusionParams(g=g, alpha=alpha)
        shifted = DiffusionParams(g=g, alpha=alpha, drift=[0.7])

        def multiplier(params):
            u1 = denoise_step(policy, params, [e], [1.0], dt=dt)[0]
            u2 = denoise_step(policy, params, [e], [2.0], dt=dt)[0]
            return u2 - u1  # slope of the affine map in u

        assert multiplier(base) == pytest.approx(multiplier(shifted), abs=1e-12)


class TestFullDenoise:
    def test_geometric_convergence(self):
        # contraction factor (1 - 3 * 0.01) per inner step at K' = 3
        policy = scalar_policy(3.0, 1.0 / 3.0)
        params = DiffusionParams(g=1.0, alpha=1.0, inner_steps=500)
        u = full_denoise(policy, params, [5.0], dt_inner=0.01)
        assert abs(u[0] - (-15.0)) < 1e-3

    def test_single_step_equals_denoise_step(self):
        policy = scalar_policy(2.0, 0.5)
        params = DiffusionParams(g=1.0, alpha=2.0, inner_steps=1)
        got = full_denoise(policy, params, [1.0], dt_inner=0.02)
        want = denoise_step(policy, params, [1.0], [0.0], dt=0.02 / 2.0)
        assert np.allclose(got, want, atol=1e-15)

    def test_zero_state_zero_init(self):
        policy = scalar_policy()
        params = DiffusionParams(g=1.0, alpha=1.0, inner_steps=10)
        assert np.array_equal(full_denoise(policy, params, [0.0], dt_inner=0.01), [0.0])

    def test_default_inner_dt_consumes_one_plant_step(self):
        params = DiffusionParams(g=1.0, alpha=4.0, inner_steps=8)
        assert default_inner_dt(params, dt=0.01) * params.inner_steps == pytest.approx(
            4.0 * 0.01
        )

    def test_stochastic_reproducible(self):
        policy = scalar_policy()
        params = DiffusionParams(g=1.0, alpha=1.0, stochastic=True, inner_steps=20)
        a = full_denoise(policy, params, [1.0], dt_inner=0.01, rng=RngStream(9))
        b = full_denoise(policy, params, [1.0], dt_inner=0.01, rng=RngStream(9))
        assert np.array_equal(a, b)
