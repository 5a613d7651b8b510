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
from stabkit.errors import DimensionError, NonFiniteError, ParameterError, SingularMatrixError
from stabkit.errors import StabkitError
from stabkit.matrixkit import _symmetric

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
        assert np.linalg.eigvals(augmented_matrix(2.0, 1.0, 3.0, 3.0)).real.max() < 0
        assert verdict.margins["kprime"] == pytest.approx(1.0, abs=1e-9)

    def test_unstable_example(self):
        verdict = analytic_1d(2.0, 1.0, 3.0, 1.0, 1.0, 1.0)
        assert verdict.label == "unstable"
        assert np.linalg.eigvals(augmented_matrix(2.0, 1.0, 3.0, 1.0)).real.max() > 0

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
            rightmost = np.linalg.eigvals(augmented_matrix(a, b, k, kprime)).real.max()
            expected = "stable" if rightmost < 0 else "unstable"
            assert verdict.label == expected, (a, b, k, sigma, g, alpha)


class TestEffectiveGain:
    def test_scalar_composition(self):
        # K' = g^2 alpha / sigma^2 = 48; with A = 0 the gain margin is K' itself
        verdict = analytic_1d(0.0, 1.0, 1.0, 0.5, 2.0, 3.0)
        assert verdict.margins["kprime"] == pytest.approx(48.0)

    def test_matrix_composition(self):
        # P = g^2 alpha Sigma^-1 = 8 I; with A = 0 the gain margin is lam_min(P)
        verdict = analytic_ndim(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)),
                                0.25 * np.eye(2), 1.0, 2.0)
        assert verdict.margins["gain_vs_plant"] == pytest.approx(8.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ParameterError):
            analytic_ndim(np.eye(2), np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 1.0, 1.0)


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

    def test_refuses_nearly_singular_B(self):
        with pytest.raises(SingularMatrixError):
            second_order_coefficients(
                np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-14]], np.eye(2), np.eye(2)
            )

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
            lam_s1 = np.linalg.eigvalsh(_symmetric(a))[-1]
            lam_s2 = np.linalg.eigvalsh(_symmetric(a - b @ k))[-1]
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


# a per-step run for the empirical sweeps that need no other
RUN = CouplingConfig(mode="per-step", dt=1e-3, horizon=20.0, e0=[1.0], u0=[0.0], seed=0)


def _sweep(base, axis1, axis2, **kwargs):
    """``sweep_region`` of the scalar system with ``base``'s parameters, whose
    policy holds Sigma = sigma * sigma."""
    return sweep_region(
        PlantModel(A=base["A"], B=base["B"]),
        ExpertPolicy(K=base["K"], Sigma=[[base["sigma"] * base["sigma"]]]),
        DiffusionParams(g=base["g"], alpha=base["alpha"]),
        axis1, axis2, **kwargs,
    )


class TestSweepRegion:
    BASE = {"A": 2.0, "B": 1.0, "K": 3.0, "sigma": 0.5, "g": 1.0, "alpha": 1.0}

    def test_single_cell_reduces_to_analytic(self):
        grid = _sweep(
            self.BASE,
            AxisSpec("A", 2.0, 2.0, 1),
            AxisSpec("kprime", 3.0, 3.0, 1),
        )
        assert len(grid) == 1
        direct = analytic_1d(2.0, 1.0, 3.0, math.sqrt(1.0 / 3.0), 1.0, 1.0)
        assert grid.analytic.label[0] == direct.label
        assert grid.analytic.margins["kprime"][0] == pytest.approx(
            direct.margins["kprime"], abs=1e-12
        )

    def test_boundary_is_gain_equals_response(self):
        # A - BK = -1 held fixed by sweeping (A, kprime) with K = A + 1
        checked = 0
        for a in np.linspace(0.5, 4.0, 8):
            base = dict(self.BASE, A=float(a), K=float(a) + 1.0)
            grid = _sweep(
                base,
                AxisSpec("A", float(a), float(a), 1),
                AxisSpec("kprime", 0.1, 6.0, 24),
            )
            for a_value, kprime, label in zip(
                grid.axis1.tolist(), grid.axis2.tolist(), grid.analytic.label.tolist()
            ):
                if abs(kprime - a_value) < 0.05:
                    continue
                assert label == ("stable" if kprime > a_value else "unstable")
                checked += 1
        assert checked > 150

    def test_empirical_agreement_off_boundary_band(self):
        sim = CouplingConfig(
            mode="per-step", dt=1e-3, horizon=20.0, e0=[1.0], u0=[0.0], seed=0
        )
        agree = total = 0
        for a in np.linspace(0.5, 4.0, 6):
            base = dict(self.BASE, A=float(a), K=float(a) + 1.0)
            grid = _sweep(
                base,
                AxisSpec("B", 1.0, 1.0, 1),
                AxisSpec("kprime", 0.3, 6.0, 12),
                run=sim,
            )
            for kprime, analytic, empirical in zip(
                grid.axis2.tolist(), grid.analytic.label.tolist(), grid.empirical_label.tolist()
            ):
                if abs(kprime - a) < 0.1:
                    continue
                total += 1
                agree += analytic == empirical
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
        grid = _sweep(self.BASE, axis1, axis2, run=sim)
        rates = []
        for index, (a_value, kprime) in enumerate(zip(grid.axis1.tolist(), grid.axis2.tolist())):
            sigma = math.sqrt(1.0 / kprime)  # g = alpha = 1
            trajectory = simulate(
                PlantModel(A=[[a_value]], B=[[1.0]], setpoint=[0.0]),
                ExpertPolicy(K=[[3.0]], Sigma=[[sigma * sigma]]),
                DiffusionParams(g=1.0, alpha=1.0),
                CouplingConfig(
                    mode="per-step", dt=1e-2, horizon=10.0, e0=[1.0], u0=[0.0],
                    seed=5 ^ index, record_stride=4,
                ),
            )
            expected = classify_empirical(trajectory)
            assert grid.empirical_label[index] == expected.label
            assert grid.empirical_rate[index] == expected.rate
            assert grid.empirical_residual[index] == expected.residual
            rates.append(expected.rate)
        assert len(rates) == 36
        assert math.inf in rates
        assert any(math.isfinite(rate) for rate in rates)

    def test_row_major_order_and_seed_independence(self):
        grid = _sweep(
            self.BASE,
            AxisSpec("A", 1.0, 2.0, 2),
            AxisSpec("kprime", 1.0, 3.0, 3),
        )
        assert grid.shape == (2, 3) and len(grid) == 6
        assert [round(v, 6) for v in grid.axis1.tolist()] == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        assert [round(v, 6) for v in grid.axis2.tolist()] == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]

    def test_axis_validation(self):
        with pytest.raises(ParameterError):
            AxisSpec("Q", 0.0, 1.0, 4)
        with pytest.raises(ParameterError):
            AxisSpec("sigma", -1.0, 1.0, 4)
        with pytest.raises(ParameterError):
            AxisSpec("A", 0.0, 1.0, 0)
        with pytest.raises(ParameterError):
            _sweep(
                self.BASE, AxisSpec("kprime", 1.0, 2.0, 2), AxisSpec("sigma", 0.1, 1.0, 2)
            )
        with pytest.raises(ParameterError):
            _sweep(
                self.BASE, AxisSpec("A", 1.0, 2.0, 2), AxisSpec("A", 1.0, 2.0, 2)
            )

    def test_axis_coerces_whole_steps_and_real_bounds(self):
        # 2.0 steps used to reach linspace and raise a bare TypeError; the
        # refusals of a bool bound and a fractional count are in test_validation
        axis = AxisSpec("A", 0, 1, 2.0)
        assert axis == AxisSpec("A", 0.0, 1.0, 2)
        assert (type(axis.start), type(axis.steps)) == (float, int)
        assert axis.values().tolist() == [0.0, 1.0]

    def test_boundary_points_near_diagonal(self):
        # one 1 x 32 grid per A: each has its one transition near K' = A
        points = []
        for a in np.linspace(0.5, 4.0, 8):
            base = dict(self.BASE, A=float(a), K=float(a) + 1.0)
            points += _sweep(
                base,
                AxisSpec("A", float(a), float(a), 1),
                AxisSpec("kprime", 0.1, 6.0, 32),
            ).boundary_points()
        assert len(points) >= 6
        for x, y in points:
            assert abs(y - x) < 0.25


def _cell_params(base, axis1, axis2, v1, v2):
    """Parameters of one grid cell, applied axis by axis as a one-cell
    evaluation does: a kprime axis sets sigma = g sqrt(alpha / kprime)."""
    params = dict(base)
    for name, value in ((axis1.name, v1), (axis2.name, v2)):
        if name == "kprime":
            params["sigma"] = params["g"] * math.sqrt(params["alpha"] / value)
        else:
            params[name] = value
    return params


def _grid_values(axis1, axis2):
    return [(v1, v2) for v1 in axis1.values().tolist() for v2 in axis2.values().tolist()]


class TestNonFiniteEffectiveGain:
    BASE = {"A": 1.0, "B": 1.0, "K": 2.0, "sigma": 0.5, "g": 1.0, "alpha": 1.0}

    def test_underflowing_variance_is_refused(self):
        # sigma * sigma underflows to 0: the division used to raise ZeroDivisionError
        with pytest.raises(ParameterError, match="effective gain"):
            analytic_1d(1.0, 1.0, 2.0, 1e-170, 1.0, 1.0)

    def test_infinite_gain_is_refused_not_marginal(self):
        # K' = 1 / 1e-320 overflows to inf; inf <= 1e-9 * inf used to read as a tie
        with pytest.raises(ParameterError, match="effective gain"):
            analytic_1d(1.0, 1.0, 2.0, 1e-160, 1.0, 1.0)
        assert analytic_1d(1.0, 1.0, 2.0, 1e-150, 1.0, 1.0).label == "stable"

    @pytest.mark.parametrize("empirical", [False, True])
    def test_grid_reports_first_refused_cell(self, empirical):
        # row-major cells: sigma = 1e-150 (K' = 1e300, accepted) for K = 1, 2, then
        # sigma = 1e-160 (refused) for K = 1, 2; the report names the third cell
        axis1, axis2 = AxisSpec("sigma", 1e-150, 1e-160, 2), AxisSpec("K", 1.0, 2.0, 2)
        with pytest.raises(ParameterError) as expected:
            analytic_1d(**_cell_params(self.BASE, axis1, axis2, 1e-160, 1.0))
        with pytest.raises(ParameterError) as caught:
            _sweep(self.BASE, axis1, axis2, run=RUN if empirical else None)
        assert str(caught.value) == str(expected.value)
        assert "sigma=1e-160" in str(caught.value)

    def test_empirical_grid_accepts_a_variance_whose_double_overflows(self):
        # sigma = 1.2e154 passes the scalar test (K' ~ 7e-309 > 0); its variance
        # 1.44e308 doubles past the float range, yet its symmetric part is itself,
        # so the policy accepts it and the empirical grid runs the cell
        axis1, axis2 = AxisSpec("sigma", 1.0, 1.2e154, 2), AxisSpec("K", 1.0, 2.0, 2)
        policy = ExpertPolicy(K=[[1.0]], Sigma=[[1.2e154 * 1.2e154]])
        assert policy.Sigma[0, 0] == 1.2e154 * 1.2e154
        grid = _sweep(self.BASE, axis1, axis2, run=RUN)
        run = classify_empirical(simulate(
            PlantModel(A=1.0, B=1.0), policy, DiffusionParams(g=1.0, alpha=1.0),
            RUN,
        ))
        assert (grid.empirical_label[2], grid.empirical_rate[2]) == (run.label, run.rate)

    @pytest.mark.parametrize(
        "axis1", [AxisSpec("sigma", 1.0, 1e155, 2), AxisSpec("kprime", 1e-310, 1.0, 2)]
    )
    def test_overflowing_variance_is_refused(self, axis1):
        # sigma = 1e155, or inf from K' = 1e-310: the variance overflows, and
        # the cell's K' = 0 is refused before any policy is built
        axis2 = AxisSpec("K", 1.0, 2.0, 2)
        v1 = axis1.values()[-1] if axis1.name == "sigma" else axis1.values()[0]
        with pytest.raises(ParameterError) as expected:
            analytic_1d(**_cell_params(self.BASE, axis1, axis2, float(v1), 1.0))
        for empirical in (False, True):
            with pytest.raises(ParameterError) as caught:
                _sweep(self.BASE, axis1, axis2, run=RUN if empirical else None)
            assert str(caught.value) == str(expected.value)

    def test_first_refused_cell_wins_over_a_later_overflow(self):
        axis1, axis2 = AxisSpec("sigma", 1e-160, 1e155, 2), AxisSpec("K", 1.0, 2.0, 2)
        with pytest.raises(ParameterError, match="sigma=1e-160"):
            _sweep(self.BASE, axis1, axis2, run=RUN)

    def test_empirical_grid_checks_start_lengths(self):
        sim = CouplingConfig(mode="per-step", dt=1e-2, horizon=1.0, e0=[1.0, 2.0], u0=[0.0])
        with pytest.raises(DimensionError, match="e0 has length 2, plant expects 1"):
            _sweep(
                self.BASE, AxisSpec("A", 0.5, 1.0, 2), AxisSpec("K", 1.0, 2.0, 2),
                run=sim,
            )


class TestNonFiniteParameters:
    BASE = TestNonFiniteEffectiveGain.BASE

    @pytest.mark.parametrize("name", ["A", "B", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_analytic_1d_refuses(self, name, value):
        params = dict(self.BASE, **{name: value})
        with pytest.raises(NonFiniteError, match=f"{name} must be finite"):
            analytic_1d(**params)

    @pytest.mark.parametrize("a, b, k, label, name, margin", [
        # B K = +-inf: K' = 4 > A holds, so the closed loop alone decides
        (1.0, 1e300, 1e300, "stable", "closed_loop", math.inf),
        (1.0, 1e300, -1e300, "unstable", "closed_loop", -math.inf),
        # sigma* = g sqrt(alpha / A) overflows for a subnormal A > 0
        (1e-310, 1.0, 2.0, "stable", "sigma", math.inf),
    ])
    def test_infinite_margin_decides_by_its_sign(self, a, b, k, label, name, margin):
        verdict = analytic_1d(a, b, k, 0.5, 1.0, 1.0)
        assert verdict.label == label
        assert verdict.margins[name] == margin
        assert verdict.conditions == {"closed_loop": label == "stable", "variance_bound": True}

    @pytest.mark.parametrize("steps", [1, 3])
    def test_axis_span_must_not_overflow(self, steps):
        with pytest.raises(ParameterError, match="overflows"):
            AxisSpec("A", -1e308, 1e308, steps)
        assert np.all(np.isfinite(AxisSpec("A", -1e307, 1e307, 3).values()))


class TestGridVerdictParity:
    """A grid evaluated as columns gives exactly the per-cell verdicts."""

    BASE = {"A": 2.0, "B": 1.0, "K": 3.0, "sigma": 0.5, "g": 1.3, "alpha": 0.7}

    GRIDS = [
        # A < 0, A = 0, A > 0 against closed-loop ties B K = A on the diagonal
        (AxisSpec("A", -1.0, 1.0, 5), AxisSpec("K", -1.0, 1.0, 9), {"B": 1.0}),
        # gain ties K' = A on a kprime axis
        (AxisSpec("A", 0.5, 2.5, 5), AxisSpec("kprime", 0.5, 2.5, 9), {"K": 4.0}),
        (AxisSpec("kprime", 0.1, 40.0, 7), AxisSpec("B", -2.0, 3.0, 6), {}),
        # sigma ties at sigma* = g sqrt(alpha / A)
        (AxisSpec("sigma", 0.2, 2.0, 10), AxisSpec("A", 0.0, 1.2, 7), {}),
        (AxisSpec("g", 0.3, 2.0, 4), AxisSpec("alpha", 0.2, 3.0, 5), {"A": -0.5}),
        # 1-step axes
        (AxisSpec("B", 1.5, 1.5, 1), AxisSpec("sigma", 0.2, 2.0, 7), {}),
        (AxisSpec("K", -3.0, 3.0, 7), AxisSpec("A", 0.0, 0.0, 1), {}),
        (AxisSpec("A", 2.0, 2.0, 1), AxisSpec("kprime", 3.0, 3.0, 1), {}),
        # B K past the float range: an infinite closed-loop margin decides by its sign
        (AxisSpec("B", -1e300, 1e300, 5), AxisSpec("A", -1.0, 1.0, 3), {"K": 1e300}),
    ]

    @pytest.mark.parametrize("axis1, axis2, overrides", GRIDS)
    def test_grid_equals_per_cell_analytic(self, axis1, axis2, overrides):
        base = dict(self.BASE, **overrides)
        grid = _sweep(base, axis1, axis2)
        values = _grid_values(axis1, axis2)
        assert len(grid) == len(values)
        assert grid.empirical_label is None
        labels = set()
        for index, (v1, v2) in enumerate(values):
            expected = analytic_1d(**_cell_params(base, axis1, axis2, v1, v2))
            verdict = grid.analytic.verdict(index)
            assert (grid.axis1[index], grid.axis2[index]) == (v1, v2)
            assert grid.analytic.label[index] == verdict.label == expected.label
            assert verdict.margins == expected.margins
            assert list(verdict.margins) == list(expected.margins)
            assert verdict.conditions == expected.conditions
            assert verdict.notes == expected.notes
            assert grid.analytic.min_margin[index] == verdict.min_margin == expected.min_margin
            labels.add(expected.label)
        if axis1.steps * axis2.steps > 20:
            assert "marginal" in labels or "unstable" in labels

    def test_grids_cover_every_label_and_sign_of_a(self):
        labels, signs = set(), set()
        for axis1, axis2, overrides in self.GRIDS:
            base = dict(self.BASE, **overrides)
            for v1, v2 in _grid_values(axis1, axis2):
                params = _cell_params(base, axis1, axis2, v1, v2)
                labels.add(analytic_1d(**params).label)
                signs.add(np.sign(params["A"]))
        assert labels == {"stable", "marginal", "unstable"}
        assert signs == {-1.0, 0.0, 1.0}

    def test_columns_and_sequence_protocol(self):
        axis1, axis2 = AxisSpec("A", -0.5, 3.0, 4), AxisSpec("kprime", 0.5, 6.0, 5)
        grid = _sweep(self.BASE, axis1, axis2)
        verdicts = [grid.analytic.verdict(i) for i in range(len(grid))]
        values = _grid_values(axis1, axis2)
        assert grid.shape == (4, 5) and len(grid) == 20
        assert grid.axis1.tolist() == [v1 for v1, _ in values]
        assert grid.axis2.tolist() == [v2 for _, v2 in values]
        assert grid.analytic.label.tolist() == [v.label for v in verdicts]
        assert grid.analytic.min_margin.tolist() == [v.min_margin for v in verdicts]
        assert grid.analytic.margins["kprime"].tolist() == [
            v.margins["kprime"] for v in verdicts
        ]
        # the sigma margin column is NaN where A <= 0 (the bound is vacuous)
        assert [math.isnan(x) for x in grid.analytic.margins["sigma"].tolist()] == [
            "sigma" not in v.margins for v in verdicts
        ]
        assert grid.empirical_label is None
        stable = [[v.label == "stable" for v in verdicts[i * 5 : (i + 1) * 5]] for i in range(4)]
        assert grid.stable().tolist() == stable
        # the first crossing of each row, at the midpoint of its two axis2 values
        expected = []
        for i, row in enumerate(stable):
            flips = [j for j in range(4) if row[j] != row[j + 1]]
            if flips:
                v1, v2 = values[i * 5 + flips[0]]
                expected.append((v1, 0.5 * (v2 + values[i * 5 + flips[0] + 1][1])))
        assert expected
        assert grid.boundary_points() == expected


class TestGridEmpiricalParity:
    """Empirical cells compiled from columns give the verdicts of per-cell
    ``simulate`` runs exactly: labels, divergence, rates and residuals, on
    whichever cells share a rollout batch."""

    BASE = {"A": 2.0, "B": 1.0, "K": 3.0, "sigma": 0.5, "g": 1.0, "alpha": 1.0}

    @pytest.mark.parametrize("batch_floats", [coupled_sim._BATCH_FLOATS, 5000])
    @pytest.mark.parametrize(
        "axis1, axis2, dt, stride, e0",
        [
            # kprime past K' dt = 2 (Euler diverges) and below K' = A
            (AxisSpec("A", 0.5, 3.0, 6), AxisSpec("kprime", 0.5, 300.0, 6), 1e-2, 4, 1.0),
            (AxisSpec("K", 0.4, 4.0, 5), AxisSpec("sigma", 0.02, 1.5, 7), 1e-2, 4, 1.0),
            (AxisSpec("g", 0.5, 2.0, 1), AxisSpec("B", -1.0, 4.0, 9), 1e-2, 4, 1.0),
            # K' dt up to 1e30: those cells' 4-step maps pass the power cap
            (AxisSpec("A", 0.5, 3.0, 4), AxisSpec("kprime", 1.0, 1e32, 4), 1e-2, 4, 1.0),
            # K' dt up to 3 or 4: diverging cells whose power tables are
            # capped at many lengths, and stride-1 grids with whole tables
            (AxisSpec("A", 0.5, 3.0, 12), AxisSpec("kprime", 0.5, 240.0, 12), 1 / 80, 4, 1.0),
            (AxisSpec("A", 0.5, 3.0, 12), AxisSpec("kprime", 0.5, 4000.0, 12), 1e-3, 4, 1.0),
            (AxisSpec("A", 0.5, 3.0, 12), AxisSpec("kprime", 0.5, 400.0, 12), 1e-2, 1, 1.0),
            (AxisSpec("A", 0.5, 3.0, 12), AxisSpec("kprime", 0.5, 240.0, 12), 1 / 80, 1, 1.0),
            # a start so small that growing cells outlast their usable powers,
            # and some never blow up
            (AxisSpec("A", 0.5, 3.0, 12), AxisSpec("kprime", 0.5, 240.0, 12), 1 / 80, 4, 1e-190),
        ],
    )
    def test_verdicts_match_per_cell_runs(self, monkeypatch, batch_floats, axis1, axis2, dt,
                                          stride, e0):
        monkeypatch.setattr(coupled_sim, "_BATCH_FLOATS", batch_floats)
        # the sweep runs per-step and deterministic whatever the mode and seed
        sim = CouplingConfig(
            mode="inner-loop", dt=dt, horizon=10.0, e0=[e0], u0=[0.0], seed=5,
            record_stride=stride,
        )
        grid = _sweep(self.BASE, axis1, axis2, run=sim)
        expected = []
        for v1, v2 in _grid_values(axis1, axis2):
            p = _cell_params(self.BASE, axis1, axis2, v1, v2)
            expected.append(classify_empirical(simulate(
                PlantModel(A=[[p["A"]]], B=[[p["B"]]], setpoint=[0.0]),
                ExpertPolicy(K=[[p["K"]]], Sigma=[[p["sigma"] * p["sigma"]]]),
                DiffusionParams(g=p["g"], alpha=p["alpha"]),
                CouplingConfig(
                    mode="per-step", dt=dt, horizon=10.0, e0=[e0], u0=[0.0],
                    record_stride=stride,
                ),
            )))
        assert grid.empirical_label.tolist() == [v.label for v in expected]
        # a diverged run's rate is +inf
        diverged = [v.rate == math.inf for v in expected]
        assert (grid.empirical_rate == math.inf).tolist() == diverged
        if axis1.name == "A":
            assert any(diverged)
        assert grid.empirical_rate.tolist() == [v.rate for v in expected]
        assert grid.empirical_residual.tolist() == [v.residual for v in expected]
        assert grid.empirical_rate.shape == grid.empirical_residual.shape == (len(grid),)

    def test_empirical_sweep_builds_no_trajectory(self, monkeypatch):
        # the grid is fitted from columns: no per-cell trajectory or verdict
        calls = {"classify": 0, "trajectory": 0}
        classify, trajectory = coupled_sim.classify_empirical, coupled_sim.Trajectory

        def counted_classify(traj):
            calls["classify"] += 1
            return classify(traj)

        def counted_trajectory(*args, **kwargs):
            calls["trajectory"] += 1
            return trajectory(*args, **kwargs)

        monkeypatch.setattr(coupled_sim, "classify_empirical", counted_classify)
        monkeypatch.setattr(coupled_sim, "Trajectory", counted_trajectory)
        sim = CouplingConfig(
            mode="per-step", dt=1e-2, horizon=10.0, e0=[1.0], u0=[0.0], record_stride=4,
        )
        grid = _sweep(self.BASE, AxisSpec("A", 0.5, 3.0, 6), AxisSpec("kprime", 0.5, 300.0, 6),
                            run=sim)
        assert len(grid) == 36 and math.inf in grid.empirical_rate.tolist()
        assert calls == {"classify": 0, "trajectory": 0}
        # the counters do see a one-run verdict
        coupled_sim.classify_empirical(coupled_sim.simulate(
            PlantModel(A=[[2.0]], B=[[1.0]], setpoint=[0.0]),
            ExpertPolicy(K=[[3.0]], Sigma=[[0.25]]), DiffusionParams(g=1.0, alpha=1.0), sim,
        ))
        assert calls == {"classify": 1, "trajectory": 1}

    def test_zero_start_is_stable_on_every_cell(self):
        # the exact zero equilibrium stays zero even where K' dt reaches 1e30
        # and the stride-25 maps pass the power cap, and where K' dt of 3 to 4
        # overflows the later powers of a table whose first ones are usable
        sim = CouplingConfig(
            mode="per-step", dt=1e-2, horizon=10.0, e0=[0.0], u0=[0.0], record_stride=25,
        )
        for kprime in (AxisSpec("kprime", 1.0, 1e32, 7), AxisSpec("kprime", 0.5, 400.0, 12)):
            grid = _sweep(self.BASE, AxisSpec("A", -1.0, 3.0, 5), kprime,
                                run=sim)
            assert grid.empirical_label.tolist() == ["stable"] * len(grid)
            assert grid.empirical_rate.tolist() == [-math.inf] * len(grid)
            assert grid.empirical_residual.tolist() == [0.0] * len(grid)
