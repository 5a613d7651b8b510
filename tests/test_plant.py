import numpy as np
import pytest

from stabkit import ExpertPolicy, PlantModel, expert_action, plant_derivative
from stabkit.errors import DimensionError, ParameterError

RNG = np.random.default_rng(77)


class TestPlantModel:
    def test_scalar_coercion(self):
        plant = PlantModel(A=2, B=1, setpoint=[5.0])
        assert plant.A.shape == (1, 1)
        assert plant.n_states == 1
        assert plant.n_inputs == 1

    def test_rejects_non_square_A(self):
        with pytest.raises(DimensionError):
            PlantModel(A=np.ones((2, 3)), B=np.ones((2, 1)), setpoint=np.zeros(2))

    def test_rejects_mismatched_B(self):
        with pytest.raises(DimensionError):
            PlantModel(A=np.eye(2), B=np.ones((3, 1)), setpoint=np.zeros(2))

    def test_rejects_mismatched_setpoint(self):
        with pytest.raises(DimensionError):
            PlantModel(A=np.eye(2), B=np.eye(2), setpoint=np.zeros(3))


class TestExpertPolicy:
    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ParameterError):
            ExpertPolicy(K=np.eye(2), Sigma=[[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_singular_sigma(self):
        with pytest.raises(ParameterError):
            ExpertPolicy(K=[[3.0]], Sigma=[[0.0]])

    def test_rejects_sigma_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ExpertPolicy(K=np.ones((2, 3)), Sigma=np.eye(3))


class TestPlantDerivative:
    def test_equilibrium(self):
        plant = PlantModel(A=np.eye(3), B=np.ones((3, 2)), setpoint=np.zeros(3))
        assert np.array_equal(plant_derivative(plant, np.zeros(3), np.zeros(2)), np.zeros(3))

    def test_hand_arithmetic(self):
        plant = PlantModel(A=2, B=1, setpoint=[0.0])
        # 2*5 + 1*(-15) = -5
        assert plant_derivative(plant, [5.0], [-15.0]) == pytest.approx([-5.0])

    def test_input_decoupled(self):
        plant = PlantModel(A=np.eye(3), B=np.zeros((3, 2)), setpoint=np.zeros(3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(plant_derivative(plant, v, np.ones(2)), v)

    def test_dimension_mismatch(self):
        plant = PlantModel(A=np.eye(2), B=np.eye(2), setpoint=np.zeros(2))
        with pytest.raises(DimensionError):
            plant_derivative(plant, np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionError):
            plant_derivative(plant, np.zeros(2), np.zeros(3))


class TestExpertAction:
    def test_zero_at_origin(self):
        policy = ExpertPolicy(K=np.ones((2, 3)), Sigma=np.eye(2))
        assert np.array_equal(expert_action(policy, np.zeros(3)), np.zeros(2))

    def test_hand_arithmetic(self):
        policy = ExpertPolicy(K=3, Sigma=[[1.0]])
        assert expert_action(policy, [5.0]) == pytest.approx([-15.0])

    def test_identity_gain(self):
        policy = ExpertPolicy(K=np.eye(3), Sigma=np.eye(3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(expert_action(policy, v), -v)

    def test_exact_linearity_on_representable_inputs(self):
        # small integers keep every product and sum exact in binary floating
        # point, so linearity holds bit-for-bit
        policy = ExpertPolicy(
            K=RNG.integers(-8, 9, size=(2, 3)).astype(float), Sigma=np.eye(2)
        )
        e1 = RNG.integers(-8, 9, size=3).astype(float)
        e2 = RNG.integers(-8, 9, size=3).astype(float)
        lhs = expert_action(policy, 2.0 * e1 + 4.0 * e2)
        rhs = 2.0 * expert_action(policy, e1) + 4.0 * expert_action(policy, e2)
        assert np.array_equal(lhs, rhs)

    def test_linearity_on_generic_inputs(self):
        policy = ExpertPolicy(K=RNG.normal(size=(2, 3)), Sigma=np.eye(2))
        e1 = RNG.normal(size=3)
        e2 = RNG.normal(size=3)
        lhs = expert_action(policy, 1.7 * e1 - 0.3 * e2)
        rhs = 1.7 * expert_action(policy, e1) - 0.3 * expert_action(policy, e2)
        assert np.allclose(lhs, rhs, atol=1e-13)
