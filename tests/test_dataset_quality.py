import io
import math
import re

import numpy as np
import pytest

from stabkit import dataset_quality
from stabkit import (
    DemonstrationSet,
    PlantModel,
    RngStream,
    analytic_1d,
    estimate_covariance,
    estimate_gain,
    generate_demonstrations,
    load_demonstrations,
    quality_report,
)
from stabkit.dataset_quality import DEFAULT_COV_FLOOR
from stabkit.errors import (
    DatasetFormatError,
    DimensionError,
    NonFiniteError,
    ParameterError,
    RankDeficiencyError,
)


class TestLoadDemonstrations:
    def test_parses_1d_file(self):
        demos = load_demonstrations("e_1,u_1\n5,-15\n1,-3\n")
        assert demos.n_states == 1
        assert demos.n_actions == 1
        assert demos.n_records == 2
        assert np.array_equal(demos.states[:, 0], [5.0, 1.0])

    def test_parses_matrix_file_from_stream(self):
        text = "e_1,e_2,u_1\n1,2,3\n4,5,6\n"
        demos = load_demonstrations(io.StringIO(text))
        assert (demos.n_states, demos.n_actions, demos.n_records) == (2, 1, 2)

    def test_header_only_is_empty_dataset(self):
        with pytest.raises(DatasetFormatError, match="empty dataset"):
            load_demonstrations("e_1,u_1\n")

    def test_ragged_row_names_line(self):
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_demonstrations("e_1,u_1\n1,2\n1,2,3\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_demonstrations("e_1,u_1\n1,spam\n")

    def test_malformed_headers(self):
        for header in ("x_1,u_1", "e_1,e_3,u_1", "u_1,e_1", "e_1", "e_2,u_1"):
            with pytest.raises(DatasetFormatError, match="line 1"):
                load_demonstrations(header + "\n1,1\n")

    def test_non_finite_rejected(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_demonstrations("e_1,u_1\ninf,1\n")

    def test_line_numbers_survive_blank_lines(self):
        with pytest.raises(DatasetFormatError, match="line 4"):
            load_demonstrations("e_1,u_1\n1,2\n\n1,2,3\n")


class TestEstimateGain:
    def test_noiseless_scalar(self):
        e = np.linspace(-2, 2, 20).reshape(-1, 1)
        demos = DemonstrationSet(states=e, actions=-3.0 * e)
        k_hat = estimate_gain(demos)
        assert abs(k_hat[0, 0] - 3.0) < 1e-10

    def test_noiseless_matrix(self):
        rng = RngStream(3)
        k_true = np.array([[1.0, -2.0, 0.5], [0.3, 0.0, 2.0]])
        states = rng.standard_normal((50, 3))
        demos = DemonstrationSet(states=states, actions=-(states @ k_true.T))
        assert np.max(np.abs(estimate_gain(demos) - k_true)) < 1e-8

    def test_statistical_recovery(self):
        rng = RngStream(8)
        demos = generate_demonstrations([[3.0]], [[0.04]], 10_000, rng)
        k_hat = estimate_gain(demos)
        # OLS standard error ~ 0.2 / 100 = 0.002; 0.02 is a 10-sigma band
        assert abs(k_hat[0, 0] - 3.0) < 0.02

    def test_requires_enough_records(self):
        demos = DemonstrationSet(states=[[1.0], [2.0]], actions=[[1.0], [2.0]])
        with pytest.raises(ParameterError):
            estimate_gain(demos)

    def test_rank_deficiency(self):
        states = np.ones((10, 2))  # one excited direction only
        demos = DemonstrationSet(states=states, actions=np.ones((10, 2)))
        with pytest.raises(RankDeficiencyError):
            estimate_gain(demos)


NEAR_COLLINEAR_K = np.array([[1.5, -0.5], [0.25, 2.0]])


def _near_collinear_log(delta, n=2000, seed=21):
    """A noise-free log with states (x, x + delta y) and actions u = -K e;
    cond(E) is about 2 / delta."""
    draws = RngStream(seed).standard_normal((n, 2))
    states = np.column_stack([draws[:, 0], draws[:, 0] + delta * draws[:, 1]])
    return DemonstrationSet(states=states, actions=-(states @ NEAR_COLLINEAR_K.T))


class TestGainConditioning:
    def test_ill_conditioned_log_recovers_gain(self):
        # cond(E) ~ 2e5: the normal equations square it to ~4e10 and miss K
        # by ~1e-5; a least-squares solve on E stays near cond(E) * eps
        demos = _near_collinear_log(1e-5)
        assert 1e5 < np.linalg.cond(demos.states) < 1e6
        assert np.max(np.abs(estimate_gain(demos) - NEAR_COLLINEAR_K)) < 1e-9

    def test_rank_boundary(self):
        accepted = _near_collinear_log(2e-5)
        assert np.linalg.cond(accepted.states) < 2e5
        assert np.max(np.abs(estimate_gain(accepted) - NEAR_COLLINEAR_K)) < 1e-9
        refused = _near_collinear_log(2e-7)
        assert np.linalg.cond(refused.states) > 5e6
        with pytest.raises(RankDeficiencyError):
            estimate_gain(refused)


class TestEstimateCovariance:
    def test_noiseless_gives_floor(self):
        e = np.linspace(-2, 2, 20).reshape(-1, 1)
        demos = DemonstrationSet(states=e, actions=-3.0 * e)
        cov = estimate_covariance(demos, estimate_gain(demos))
        assert cov[0, 0] == pytest.approx(DEFAULT_COV_FLOOR, rel=1.0)

    def test_scalar_variance_interval(self):
        rng = RngStream(21)
        demos = generate_demonstrations([[3.0]], [[0.25]], 10_000, rng)
        cov = estimate_covariance(demos, estimate_gain(demos))
        assert 0.235 <= cov[0, 0] <= 0.265  # 99% chi-square band is narrower

    def test_isotropic_2d(self):
        rng = RngStream(22)
        k_true = np.array([[1.0, 0.5], [-0.3, 2.0]])
        demos = generate_demonstrations(k_true, 0.09 * np.eye(2), 10_000, rng)
        cov = estimate_covariance(demos, estimate_gain(demos))
        eigs = np.linalg.eigvalsh(cov)
        assert np.all(np.abs(eigs - 0.09) < 0.009)

    def test_requires_two_records(self):
        demos = DemonstrationSet(states=[[1.0]], actions=[[1.0]])
        with pytest.raises(ParameterError):
            estimate_covariance(demos, [[1.0]])

    def test_mean_residual_past_the_float_range_is_refused(self):
        # each residual is 1e307, but their sum is not finite, so neither is
        # their mean; the refusal names the covariance, not the squaring
        demos = DemonstrationSet(states=np.zeros((50, 1)), actions=np.full((50, 1), 1e307))
        with pytest.raises(NonFiniteError, match=re.escape(
                "the residual covariance of the demonstrations contains non-finite entries")):
            estimate_covariance(demos, [[1.0]])


class TestQualityReport:
    PLANT = PlantModel(A=4.0, B=1.0, setpoint=[0.0])

    def make_demos(self, sigma, seed=5, n=20_000):
        return generate_demonstrations([[5.0]], [[sigma**2]], n, RngStream(seed))

    def test_stable_dataset(self):
        report = quality_report(self.PLANT, self.make_demos(0.4), 1.0, 1.0)
        assert report.verdict.label == "stable"
        assert report.sigma_threshold == pytest.approx(0.5)
        assert report.verdict.min_margin > 0
        assert abs(report.k_hat[0, 0] - 5.0) < 0.05

    def test_unstable_dataset(self):
        report = quality_report(self.PLANT, self.make_demos(0.6), 1.0, 1.0)
        assert report.verdict.label == "unstable"

    def test_negative_response_has_no_threshold(self):
        plant = PlantModel(A=-1.0, B=1.0, setpoint=[0.0])
        report = quality_report(plant, self.make_demos(2.0), 1.0, 1.0)
        assert report.verdict.label == "stable"
        assert report.sigma_threshold is None

    def test_matrix_path(self):
        rng = RngStream(13)
        a = np.diag([-1.0, -2.0])
        plant = PlantModel(A=a, B=np.eye(2), setpoint=np.zeros(2))
        demos = generate_demonstrations(np.zeros((2, 2)), 0.04 * np.eye(2), 5_000, rng)
        report = quality_report(plant, demos, 1.0, 1.0)
        assert report.verdict.label == "stable"
        assert report.sigma_threshold is None  # sym(A) has no positive eigenvalue

    def test_row_reordering_invariance(self):
        demos = self.make_demos(0.4)
        perm = np.random.default_rng(0).permutation(demos.n_records)
        shuffled = DemonstrationSet(
            states=demos.states[perm], actions=demos.actions[perm]
        )
        a = quality_report(self.PLANT, demos, 1.0, 1.0)
        b = quality_report(self.PLANT, shuffled, 1.0, 1.0)
        assert a.verdict.label == b.verdict.label
        assert np.allclose(a.k_hat, b.k_hat, atol=1e-10)
        assert np.allclose(a.sigma_hat, b.sigma_hat, atol=1e-10)

    def test_residual_scaling_never_rescues_a_verdict(self):
        # scaling all residuals by c > 1 scales the covariance by c^2 and can
        # only shrink the variance margin
        base = self.make_demos(0.45)
        k_hat = estimate_gain(base)
        labels = []
        for c in (1.0, 1.3, 2.0, 4.0):
            residuals = (base.actions + base.states @ k_hat.T) * c
            scaled = DemonstrationSet(
                states=base.states, actions=-(base.states @ k_hat.T) + residuals
            )
            report = quality_report(self.PLANT, scaled, 1.0, 1.0)
            labels.append(report.verdict.label)
            cov = estimate_covariance(scaled, estimate_gain(scaled))
            assert cov[0, 0] == pytest.approx(c * c * 0.45**2, rel=0.05)
        assert labels[0] == "stable"
        flips = [i for i in range(len(labels) - 1) if labels[i] != labels[i + 1]]
        assert len(flips) == 1  # stable degrades to unstable exactly once

    def test_pipeline_matches_truth_on_large_samples(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            a = float(rng.uniform(0.5, 4.0))
            k = a + float(rng.uniform(0.5, 2.0))
            sigma_star = math.sqrt(1.0 / a)
            sigma = sigma_star * float(rng.choice([0.7, 1.4]))
            plant = PlantModel(A=a, B=1.0, setpoint=[0.0])
            demos = generate_demonstrations(
                [[k]], [[sigma**2]], 100_000, RngStream(int(rng.integers(1 << 30)))
            )
            truth = analytic_1d(a, 1.0, k, sigma, 1.0, 1.0).label
            report = quality_report(plant, demos, 1.0, 1.0)
            assert report.verdict.label == truth

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quality_report(self.PLANT, generate_demonstrations(
                np.eye(2), np.eye(2), 100, RngStream(1)
            ), 1.0, 1.0)


class TestGenerateDemonstrations:
    def test_gain_that_does_not_fit_sigma_is_refused(self):
        # a 1 x 2 gain draws one action per record, but Sigma is 2 x 2
        with pytest.raises(DimensionError) as info:
            generate_demonstrations([[1.0, 2.0]], np.eye(2), 10, RngStream(0))
        assert str(info.value) == "policy Sigma must be 1x1 to match K, got (2, 2)"

    def test_sigma_is_refused_as_the_policy_refuses_it(self):
        with pytest.raises(ParameterError, match="^policy Sigma must be positive definite$"):
            generate_demonstrations(np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 10, RngStream(0))


def _per_line_values(text, width):
    """The per-line parser's result on ``text``, read line by line the way
    load_demonstrations reads it."""
    numbered = [
        (number, line.rstrip("\n").rstrip("\r"))
        for number, line in enumerate(io.StringIO(text), start=1)
    ]
    body = [(number, line) for number, line in numbered[1:] if line.strip() != ""]
    return dataset_quality._parse_records(body, width)


def _bulk_values(text, monkeypatch):
    """load_demonstrations' result with the per-line parser disabled, so the
    values can only come from the bulk parse."""

    def refuse(numbered, width):
        raise AssertionError("bulk parse fell back to the per-line parser")

    with monkeypatch.context() as patch:
        patch.setattr(dataset_quality, "_parse_records", refuse)
        demos = load_demonstrations(text)
    return np.hstack([demos.states, demos.actions])


def _random_field(rng):
    if rng.random() < 0.1:
        return str(rng.choice(["-0.0", "0", "5e-324", "-2.2250738585072014e-308",
                               "1.5e-310", "-4.9e-324", "1e300", "-1e-300"]))
    value = rng.uniform(1.0, 10.0) * 10.0 ** int(rng.integers(-300, 300))
    value = -value if rng.random() < 0.5 else value
    spelling = int(rng.integers(4))
    if spelling == 0:
        return repr(value)
    if spelling == 1:
        return f"{value:.17g}"
    if spelling == 2:
        return f"{value:.25e}"
    return f"{value:.3E}"


class TestBulkParseParity:
    @pytest.mark.parametrize("n", [1, 4])
    def test_random_logs_match_per_line_parser(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        header = ",".join([f"e_{i + 1}" for i in range(n)] + [f"u_{i + 1}" for i in range(n)])
        rows = [",".join(_random_field(rng) for _ in range(2 * n)) for _ in range(400)]
        text = header + "\n" + "\n".join(rows) + "\n"
        bulk = _bulk_values(text, monkeypatch)
        expected = _per_line_values(text, 2 * n)
        assert bulk.shape == expected.shape == (400, 2 * n)
        assert bulk.tobytes() == expected.tobytes()

    def test_whitespace_crlf_and_blank_lines(self, monkeypatch):
        text = (
            "e_1,u_1\r\n"
            "  1.5 ,\t-2\t\r\n"
            "\r\n"
            "   \t \r\n"
            "\t-0.0,  3e-320 \r\n"
            "\n"
            "4 ,5\r\n"
        )
        bulk = _bulk_values(text, monkeypatch)
        expected = _per_line_values(text, 2)
        assert bulk.tobytes() == expected.tobytes()
        assert bulk.tolist() == [[1.5, -2.0], [-0.0, 3e-320], [4.0, 5.0]]
        assert math.copysign(1.0, bulk[1, 0]) == -1.0

    def test_single_record(self, monkeypatch):
        text = "e_1,e_2,u_1\n0.1,-7e10,2.5\n"
        bulk = _bulk_values(text, monkeypatch)
        assert bulk.shape == (1, 3)
        assert bulk.tobytes() == _per_line_values(text, 3).tobytes()

    def test_spelling_only_float_reads(self):
        text = "e_1,u_1\n1_0,2\n3,4\n"
        demos = load_demonstrations(text)
        values = np.hstack([demos.states, demos.actions])
        assert values.tolist() == [[10.0, 2.0], [3.0, 4.0]]
        assert values.tobytes() == _per_line_values(text, 2).tobytes()

    def test_first_error_wins_across_kinds(self):
        text = "e_1,u_1\n1,2\ninf,1\n4,5\n1,2,3\n"
        with pytest.raises(DatasetFormatError, match="line 3: non-finite field 'inf'") as err:
            load_demonstrations(text)
        assert err.value.line == 3

    def test_hash_is_a_field_not_a_comment(self):
        with pytest.raises(DatasetFormatError, match="line 2: non-numeric field '2#3'"):
            load_demonstrations("e_1,u_1\n1,2#3\n4,5\n")
        with pytest.raises(DatasetFormatError, match="line 3: non-numeric field '#4'"):
            load_demonstrations("e_1,u_1\n1,2\n#4,5\n")

    def test_separator_characters_are_not_whitespace(self):
        # np.loadtxt strips \x1c-\x1f around a number; float() does not.
        for char in "\x1c\x1d\x1e\x1f":
            with pytest.raises(DatasetFormatError, match="line 2: non-numeric field"):
                load_demonstrations(f"e_1,u_1\n1{char},2\n")
