import math

import numpy as np
import pytest

from stabkit import (
    AxisSpec,
    CouplingConfig,
    DiffusionParams,
    ExpertPolicy,
    PlantModel,
    analytic_1d,
    analytic_ndim,
    augmented_matrix,
    classify_table_row,
    classify_empirical,
    second_order_coefficients,
    simulate,
    sweep_region,
)
from stabkit import coupled_sim
from stabkit.errors import DimensionError, ParameterError, SingularMatrixError
from stabkit.matrixkit import eig_2x2, eig_sym, symmetric_part
from stabkit.stability_analyzer import EffectiveGain, stable_boundary_points

RNG = np.random.default_rng(555)


class TestAugmentedMatrix:
    def test_worked_example(self):
        out = augmented_matrix(2.0, 1.0, 3.0, 3.0)
        assert np.array_equal(out, [[2.0, 1.0], [-9.0, -3.0]])

    def test_zero_gain_degenerate(self):
        out = augmented_matrix(2.0, 1.0, 3.0, 0.0)
        assert np.array_equal(out, [[2.0, 1.0], [0.0, 0.0]])

    def test_all_zero_plant(self):
        out = augmented_matrix(0.0, 0.0, 0.0, 1.0)
        assert np.array_equal(out, [[0.0, 0.0], [0.0, -1.0]])

    def test_block_shape(self):
        a = RNG.normal(size=(3, 3))
        b = RNG.normal(size=(3, 2))
        k = RNG.normal(size=(2, 3))
        lam = np.diag([2.0, 5.0])
        out = augmented_matrix(a, b, k, lam)
        assert out.shape == (5, 5)
        assert np.array_equal(out[:3, :3], a)
        assert np.array_equal(out[:3, 3:], b)
        assert np.array_equal(out[3:, :3], -(lam @ k))
        assert np.array_equal(out[3:, 3:], -lam)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            augmented_matrix(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), 1.0)


class TestAnalytic1d:
    def test_stable_example(self):
        verdict = analytic_1d(2.0, 1.0, 3.0, 1.0 / math.sqrt(3.0), 1.0, 1.0)
        assert verdict.label == "stable"
        # eigenvalue oracle: real parts -0.5 for the matching joint matrix
        hi, _ = eig_2x2(augmented_matrix(2.0, 1.0, 3.0, 3.0))
        assert hi.real < 0
        assert verdict.margins["kprime"] == pytest.approx(1.0, abs=1e-9)

    def test_unstable_example(self):
        verdict = analytic_1d(2.0, 1.0, 3.0, 1.0, 1.0, 1.0)
        assert verdict.label == "unstable"
        hi, _ = eig_2x2(augmented_matrix(2.0, 1.0, 3.0, 1.0))
        assert hi.real > 0

    def test_negative_response_stable_for_any_sigma(self):
        for sigma in (0.1, 1.0, 10.0):
            verdict = analytic_1d(-1.0, 1.0, 3.0, sigma, 1.0, 1.0)
            assert verdict.label == "stable"
            assert verdict.conditions["variance_bound"] is True
            assert "sigma" not in verdict.margins
            assert any("vacuous" in note for note in verdict.notes)

    def test_variance_threshold(self):
        # sigma* = g sqrt(alpha / A) = 0.5 at A = 4
        assert analytic_1d(4.0, 1.0, 5.0, 0.49, 1.0, 1.0).label == "stable"
        assert analytic_1d(4.0, 1.0, 5.0, 0.51, 1.0, 1.0).label == "unstable"

    def test_marginal_on_boundary(self):
        assert analytic_1d(4.0, 1.0, 5.0, 0.5, 1.0, 1.0).label == "marginal"
        assert analytic_1d(2.0, 1.0, 2.0, 0.3, 1.0, 1.0).label == "marginal"

    def test_rejects_bad_scalars(self):
        for bad in ({"sigma": 0.0}, {"g": -1.0}, {"alpha": 0.0}):
            kwargs = {"sigma": 1.0, "g": 1.0, "alpha": 1.0, **bad}
            with pytest.raises(ParameterError):
                analytic_1d(1.0, 1.0, 2.0, **kwargs)

    def test_label_matches_eigenvalue_sign(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 400:
            a = float(rng.uniform(-3.0, 3.0))
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
            k = float(rng.uniform(-3.0, 3.0))
            sigma = float(np.exp(rng.uniform(np.log(0.2), np.log(3.0))))
            g = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.3, 3.0))
            kprime = g * g * alpha / sigma**2
            if abs(a - b * k) < 0.05 or abs(kprime - a) < 0.05:
                continue
            checked += 1
            verdict = analytic_1d(a, b, k, sigma, g, alpha)
            hi, _ = eig_2x2(augmented_matrix(a, b, k, kprime))
            expected = "stable" if hi.real < 0 else "unstable"
            assert verdict.label == expected, (a, b, k, sigma, g, alpha)


class TestEffectiveGain:
    def test_scalar_composition(self):
        assert EffectiveGain.from_scalar(2.0, 3.0, 0.5).kprime == pytest.approx(48.0)

    def test_matrix_composition(self):
        gain = EffectiveGain.from_covariance(1.0, 2.0, 0.25 * np.eye(2))
        assert np.allclose(gain.kprime, 8.0 * np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ParameterError):
            EffectiveGain.from_covariance(1.0, 1.0, [[1.0, 2.0], [2.0, 1.0]])


class TestSecondOrderCoefficients:
    def test_cancellation(self):
        c1, _ = second_order_coefficients(
            np.diag([4.0, 4.0]), np.eye(2), np.zeros((2, 2)), 0.25 * np.eye(2)
        )
        assert np.allclose(c1, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_substitution(self):
        # A = 2, Sigma = 1/3: C1 = [1], C0 = 3 (BK - 2)
        c1, c0 = second_order_coefficients([[2.0]], [[1.0]], [[5.0]], [[1.0 / 3.0]])
        assert c1[0, 0] == pytest.approx(1.0)
        assert c0[0, 0] == pytest.approx(3.0 * (5.0 - 2.0))

    def test_zero_gain(self):
        a = RNG.normal(size=(3, 3))
        _, c0 = second_order_coefficients(a, np.eye(3), np.zeros((3, 3)), np.eye(3))
        assert np.allclose(c0, -a, atol=1e-12)

    def test_requires_square_invertible_B(self):
        with pytest.raises(DimensionError):
            second_order_coefficients(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.eye(1))
        with pytest.raises(SingularMatrixError):
            second_order_coefficients(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))

    def test_requires_spd_sigma(self):
        with pytest.raises(ParameterError):
            second_order_coefficients(
                np.eye(2), np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]]
            )


class TestAnalyticNdim:
    def test_diagonal_example(self):
        verdict = analytic_ndim(
            np.diag([-1.0, -2.0]), np.eye(2), np.zeros((2, 2)), 0.04 * np.eye(2), 1.0, 1.0
        )
        assert verdict.label == "stable"
        # lam_min(P) = 25 against lam_max(sym A) = -1; sym closed loop is
        # diag(-25, -50)
        assert verdict.margins["gain_vs_plant"] == pytest.approx(26.0, rel=1e-9)
        assert verdict.margins["closed_loop"] == pytest.approx(25.0, rel=1e-9)

    def test_isotropic_threshold(self):
        # sym(A) of [[1, 2], [0, 1]] has eigenvalues {0, 2}: sigma* = 1/sqrt(2)
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = np.eye(2)
        k = a + np.eye(2)  # A - BK = -I
        star = 1.0 / math.sqrt(2.0)
        below = analytic_ndim(a, b, k, (star - 0.01) ** 2 * np.eye(2), 1.0, 1.0)
        above = analytic_ndim(a, b, k, (star + 0.01) ** 2 * np.eye(2), 1.0, 1.0)
        assert below.label == "stable"
        assert above.label == "inconclusive"

    def test_isotropic_reduction_matches_scalar_tests(self):
        # with Sigma = sigma^2 I the two conditions are exactly the scalar
        # eigenvalue tests on sym(A) and sym(A - BK), scaled by g^2 alpha
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            a = rng.normal(size=(n, n))
            b = np.eye(n) + 0.2 * rng.normal(size=(n, n))
            if abs(np.linalg.det(b)) < 0.1:
                continue
            k = rng.normal(size=(n, n))
            sigma = float(rng.uniform(0.2, 1.5))
            g = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.5, 2.0))
            verdict = analytic_ndim(a, b, k, sigma**2 * np.eye(n), g, alpha)
            kprime = g * g * alpha / sigma**2
            lam_s1 = eig_sym(symmetric_part(a))[-1]
            lam_s2 = eig_sym(symmetric_part(a - b @ k))[-1]
            expected = "stable" if (kprime > lam_s1 and lam_s2 < 0) else "inconclusive"
            if min(abs(kprime - lam_s1), kprime * abs(lam_s2)) < 1e-6:
                continue  # too close to the boundary to compare labels
            assert verdict.label == expected

    def test_scalar_inputs_agree_with_analytic_1d(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 400:
            a = float(rng.uniform(-3.0, 3.0))
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
            k = float(rng.uniform(-3.0, 3.0))
            sigma = float(np.exp(rng.uniform(np.log(0.2), np.log(3.0))))
            g = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.3, 3.0))
            kprime = g * g * alpha / sigma**2
            if abs(a - b * k) < 0.05 or abs(kprime - a) < 0.05:
                continue
            checked += 1
            scalar = analytic_1d(a, b, k, sigma, g, alpha).label
            ndim = analytic_ndim([[a]], [[b]], [[k]], [[sigma**2]], g, alpha).label
            # the N-D path never claims instability
            assert ndim == ("stable" if scalar == "stable" else "inconclusive")

    def test_requires_square_B(self):
        with pytest.raises(DimensionError):
            analytic_ndim(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.eye(1), 1.0, 1.0)


class TestClassifyTableRow:
    def test_unstable_demonstrator_for_all_gains(self):
        assert classify_table_row(1.0, 1.0, 100.0, 2.0) == "unstable"

    def test_stable_gain_row(self):
        assert classify_table_row(1.0, -1.0, 3.0, 2.0) == "stable"

    def test_weak_gain_row(self):
        assert classify_table_row(1.0, -1.0, 1.0, 2.0) == "unstable"

    def test_negative_response_row(self):
        assert classify_table_row(-1.0, -4.0, 0.5, -1.0) == "stable"

    def test_rejects_negative_gain(self):
        with pytest.raises(ParameterError):
            classify_table_row(1.0, -1.0, -0.5, 1.0)

    def test_agrees_with_analytic_1d_on_row_preconditions(self):
        # the nonpositive-response row is drawn with stable demonstrators:
        # the table's claim assumes the demonstrator context, and an
        # unstable demonstrator is declared unstable elsewhere in the
        # analysis regardless of the gain
        rng = np.random.default_rng(37)
        for _ in range(200):
            row = int(rng.integers(0, 4))
            if row == 0:
                a = float(rng.uniform(0.05, 3.0))
                closed = float(rng.uniform(0.06, 2.0))  # A - BK >= 0
                kprime = float(rng.uniform(0.05, 6.0))
            elif row == 1:
                a = float(rng.uniform(0.05, 3.0))
                closed = -float(rng.uniform(0.06, 2.0))
                kprime = a + float(rng.uniform(0.06, 4.0))
            elif row == 2:
                a = float(rng.uniform(0.1, 3.0))
                closed = -float(rng.uniform(0.06, 2.0))
                kprime = max(0.01, a - float(rng.uniform(0.06, a)))
            else:
                a = -float(rng.uniform(0.05, 3.0))
                closed = -float(rng.uniform(0.06, 2.0))
                kprime = float(rng.uniform(0.05, 6.0))
            if abs(kprime - a) < 0.06:
                continue
            b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
            k = (a - closed) / b
            g = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.3, 3.0))
            sigma = g * math.sqrt(alpha / kprime)
            table = classify_table_row(math.copysign(1.0, a), math.copysign(1.0, closed), kprime, a)
            analytic = analytic_1d(a, b, k, sigma, g, alpha).label
            assert table == analytic, (row, a, closed, kprime)


class TestMonotoneSigmaFlip:
    def test_single_transition_at_threshold(self):
        a, b, k, g, alpha = 1.7, 1.0, 3.0, 1.3, 0.8
        sigma_star = g * math.sqrt(alpha / a)
        # 200 points keep sigma_star itself off the grid (an exact hit is
        # correctly classified marginal, which would add a second transition)
        sigmas = np.linspace(0.1 * sigma_star, 2.5 * sigma_star, 200)
        labels = [analytic_1d(a, b, k, s, g, alpha).label for s in sigmas]
        transitions = [
            i for i in range(len(labels) - 1) if labels[i] != labels[i + 1]
        ]
        assert len(transitions) == 1
        flip = transitions[0]
        assert sigmas[flip] < sigma_star < sigmas[flip + 1]
        assert labels[0] == "stable" and labels[-1] == "unstable"


class TestSweepRegion:
    BASE = {"A": 2.0, "B": 1.0, "K": 3.0, "sigma": 0.5, "g": 1.0, "alpha": 1.0}

    def test_single_cell_reduces_to_analytic(self):
        cells = sweep_region(
            self.BASE,
            AxisSpec("A", 2.0, 2.0, 1),
            AxisSpec("kprime", 3.0, 3.0, 1),
        )
        assert len(cells) == 1
        direct = analytic_1d(2.0, 1.0, 3.0, math.sqrt(1.0 / 3.0), 1.0, 1.0)
        assert cells[0].analytic.label == direct.label
        assert cells[0].analytic.margins["kprime"] == pytest.approx(
            direct.margins["kprime"], abs=1e-12
        )

    def test_boundary_is_gain_equals_response(self):
        # A - BK = -1 held fixed by sweeping (A, kprime) with K = A + 1
        cells = []
        for i, a in enumerate(np.linspace(0.5, 4.0, 8)):
            base = dict(self.BASE, A=float(a), K=float(a) + 1.0)
            cells.extend(
                sweep_region(
                    base,
                    AxisSpec("A", float(a), float(a), 1),
                    AxisSpec("kprime", 0.1, 6.0, 24),
                )
            )
        for cell in cells:
            if abs(cell.axis2_value - cell.axis1_value) < 0.05:
                continue
            expected = "stable" if cell.axis2_value > cell.axis1_value else "unstable"
            assert cell.analytic.label == expected

    def test_empirical_agreement_off_boundary_band(self):
        sim = CouplingConfig(
            mode="per-step", dt=1e-3, horizon=20.0, e0=[1.0], u0=[0.0], seed=0
        )
        agree = total = 0
        for a in np.linspace(0.5, 4.0, 6):
            base = dict(self.BASE, A=float(a), K=float(a) + 1.0)
            cells = sweep_region(
                base,
                AxisSpec("B", 1.0, 1.0, 1),
                AxisSpec("kprime", 0.3, 6.0, 12),
                empirical=True,
                sim_config=sim,
            )
            for cell in cells:
                if abs(cell.axis2_value - a) < 0.1:
                    continue
                total += 1
                agree += cell.analytic.label == cell.empirical.label
        assert total > 40
        assert agree / total >= 0.98

    @pytest.mark.parametrize("batch_floats", [coupled_sim._BATCH_FLOATS, 5000])
    def test_batched_empirical_matches_per_cell_runs(self, monkeypatch, batch_floats):
        # a 6x6 grid whose kprime axis runs past K' dt = 2 (explicit Euler
        # diverges) and below K' = A (the loop itself is unstable); the small
        # budget splits the grid into several batches
        monkeypatch.setattr(coupled_sim, "_BATCH_FLOATS", batch_floats)
        sim = CouplingConfig(
            mode="per-step", dt=1e-2, horizon=10.0, e0=[1.0], u0=[0.0], seed=5,
            record_stride=4,
        )
        axis1, axis2 = AxisSpec("A", 0.5, 3.0, 6), AxisSpec("kprime", 0.5, 300.0, 6)
        cells = sweep_region(self.BASE, axis1, axis2, empirical=True, sim_config=sim)
        rates = []
        for cell in cells:
            sigma = math.sqrt(1.0 / cell.axis2_value)  # g = alpha = 1
            trajectory = simulate(
                PlantModel(A=[[cell.axis1_value]], B=[[1.0]], setpoint=[0.0]),
                ExpertPolicy(K=[[3.0]], Sigma=[[sigma**2]]),
                DiffusionParams(g=1.0, alpha=1.0),
                CouplingConfig(
                    mode="per-step", dt=1e-2, horizon=10.0, e0=[1.0], u0=[0.0],
                    seed=5 ^ cell.index, record_stride=4,
                ),
            )
            expected = classify_empirical(trajectory)
            assert cell.empirical.label == expected.label
            assert cell.empirical.rate == pytest.approx(expected.rate, rel=1e-9)
            rates.append(expected.rate)
        assert math.inf in rates
        assert any(math.isfinite(rate) for rate in rates)

    def test_row_major_order_and_seed_independence(self):
        cells = sweep_region(
            self.BASE,
            AxisSpec("A", 1.0, 2.0, 2),
            AxisSpec("kprime", 1.0, 3.0, 3),
        )
        assert [c.index for c in cells] == list(range(6))
        assert [round(c.axis1_value, 6) for c in cells] == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_axis_validation(self):
        with pytest.raises(ParameterError):
            AxisSpec("Q", 0.0, 1.0, 4)
        with pytest.raises(ParameterError):
            AxisSpec("sigma", -1.0, 1.0, 4)
        with pytest.raises(ParameterError):
            AxisSpec("A", 0.0, 1.0, 0)
        with pytest.raises(ParameterError):
            sweep_region(
                self.BASE, AxisSpec("kprime", 1.0, 2.0, 2), AxisSpec("sigma", 0.1, 1.0, 2)
            )
        with pytest.raises(ParameterError):
            sweep_region(
                self.BASE, AxisSpec("A", 1.0, 2.0, 2), AxisSpec("A", 1.0, 2.0, 2)
            )

    def test_boundary_points_near_diagonal(self):
        cells = []
        a_values = np.linspace(0.5, 4.0, 8)
        for a in a_values:
            base = dict(self.BASE, A=float(a), K=float(a) + 1.0)
            cells.extend(
                sweep_region(
                    base,
                    AxisSpec("A", float(a), float(a), 1),
                    AxisSpec("kprime", 0.1, 6.0, 32),
                )
            )
        points = stable_boundary_points(cells, 8, 32)
        # rebuild with global axis1 ordering: one transition per row near K'=A
        assert len(points) >= 6
        for x, y in points:
            assert abs(y - x) < 0.25
