"""The validation contract: every public entry refuses each kind of bad input
with a fixed exception type and message, although internal kernels trust
the arrays the entry checked and do not check them again.

Each case names an entry, the input it gets wrong and the refusal expected,
written out in full. Singular values in messages are matched as numbers,
since LAPACK may round their last digits differently.
"""

import math
import re

import numpy as np
import pytest

import stabkit as sk
from stabkit import matrixkit as mk
from stabkit.errors import (
    AsymmetricMatrixError,
    DimensionError,
    NonFiniteError,
    ParameterError,
    SingularMatrixError,
)

A = [[0.5, 0.1], [0.0, -0.3]]
B = [[1.0, 0.0], [0.0, 1.0]]
K = [[2.0, 0.0], [0.0, 1.0]]
S = [[0.5, 0.1], [0.1, 0.4]]

BOOL = [[0.5, True], [0.1, 0.4]]
NAN = [[0.5, 0.1], [0.1, math.nan]]
WIDE = [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0]]
ASYMMETRIC = [[0.5, 0.1], [0.1 + 1e-9, 0.4]]  # skew 1e-9, tolerance 5e-13
NOT_PD = [[1.0, 2.0], [2.0, 1.0]]
SINGULAR = [[1.0, 0.0], [0.0, 0.0]]
# positive definite by its pivots (2e-12 squared, above 1e-12), yet its
# smallest singular value 7e-13 is within the singularity rule
NEARLY_SINGULAR_PD = [[1.0, 1.0 - 7e-13], [1.0 - 7e-13, 1.0]]
# symmetric and finite, and its symmetric part is itself although
# 1.5e308 + 1.5e308 overflows; not positive definite, since its pivot 1 is
# below PD_RTOL * 1.5e308
HUGE = [[1.5e308, 0.0], [0.0, 1.0]]
# a K with two rows for a plant with one input
TALL = [[3.0], [1.0]]


def exactly(message):
    return re.escape(message)


GAIN_OVERFLOWS = exactly("matrix effective gain g^2 alpha Sigma^-1 contains non-finite entries")
CLOSED_LOOP_OVERFLOWS = exactly("closed-loop product g^2 alpha Sigma^-1 (A - B K) contains "
                                "non-finite entries")


def singular(smallest, allowed):
    """The refusal of the singularity rule; ``smallest`` is a pattern."""
    return (exactly("matrix is singular to working precision (smallest singular value ")
            + smallest + exactly(f", allowed {allowed})"))


ZERO = exactly("0.000e+00")
NUMBER = "[0-9.]+e[+-][0-9]+"


def asymmetric(name):
    return exactly(f"{name} is asymmetric beyond tolerance: max|S - S^T| = 1.000e-09, "
                   "allowed 5.000e-13")


def verdict(a=A, b=B, k=K, s=S, g=1.0):
    """``analytic_verdict`` with its inputs built by their constructors."""
    return sk.analytic_verdict(sk.PlantModel(A=a, B=b), sk.ExpertPolicy(K=k, Sigma=s),
                               sk.DiffusionParams(g=g, alpha=1.0))


def ndim(a=A, b=B, k=K, s=S, g=1.0):
    return sk.analytic_ndim(a, b, k, s, g, 1.0)


def second_order(a=A, b=B, k=K, s=S):
    return sk.second_order_coefficients(a, b, k, s)


CASES = {
    # analytic_ndim, which checks its arrays as PlantModel, ExpertPolicy and
    # DiffusionParams do
    "ndim-bool": (lambda: ndim(s=BOOL), ParameterError,
                  exactly("policy Sigma must hold numbers, got True")),
    "ndim-nan": (lambda: ndim(a=NAN), NonFiniteError,
                 exactly("plant A contains non-finite entries")),
    "ndim-wide-A": (lambda: ndim(a=WIDE), DimensionError,
                    exactly("plant A must be square, got shape (2, 3)")),
    "ndim-wide-B": (lambda: ndim(b=WIDE), DimensionError,
                    exactly("policy K is 2x2, plant expects 3x2")),
    "ndim-tall-B": (lambda: ndim(b=[[1.0], [0.5]], k=[[1.0, 0.0]], s=[[0.5]]),
                    DimensionError, exactly("B must be square, got shape (2, 1)")),
    "ndim-asymmetric": (lambda: ndim(s=ASYMMETRIC), AsymmetricMatrixError,
                        asymmetric("policy Sigma")),
    "ndim-not-pd": (lambda: ndim(s=NOT_PD), ParameterError,
                    exactly("policy Sigma must be positive definite")),
    "ndim-singular-B": (lambda: ndim(b=SINGULAR), SingularMatrixError,
                        singular(ZERO, "1.000e-12")),
    "ndim-singular-Sigma": (lambda: ndim(s=NEARLY_SINGULAR_PD), SingularMatrixError,
                            singular(NUMBER, "1.000e-12")),
    "ndim-wide-K": (lambda: ndim(k=WIDE), DimensionError,
                    exactly("policy K is 2x3, plant expects 2x2")),
    "ndim-huge-Sigma": (lambda: ndim(s=HUGE), ParameterError,
                        exactly("policy Sigma must be positive definite")),
    "ndim-huge-A": (lambda: ndim(a=HUGE), NonFiniteError, CLOSED_LOOP_OVERFLOWS),
    "ndim-zero-g": (lambda: ndim(g=0.0), ParameterError,
                    exactly("diffusion coefficient g must be > 0, got 0.0")),
    "ndim-tiny-g": (lambda: ndim(g=1e-200), ParameterError,
                    exactly("matrix effective gain must be positive definite")),
    "ndim-huge-g": (lambda: ndim(g=1e200), NonFiniteError, GAIN_OVERFLOWS),
    "ndim-huge-closed-loop": (lambda: ndim(b=[[1e300, 0.0], [0.0, 1e300]],
                                           k=[[1e10, 0.0], [0.0, 1.0]]),
                              NonFiniteError, CLOSED_LOOP_OVERFLOWS),
    # analytic_verdict, with its plant, policy and diffusion from their constructors
    "verdict-bool": (lambda: verdict(s=BOOL), ParameterError,
                     exactly("policy Sigma must hold numbers, got True")),
    "verdict-nan": (lambda: verdict(a=NAN), NonFiniteError,
                    exactly("plant A contains non-finite entries")),
    "verdict-wide-A": (lambda: verdict(a=WIDE), DimensionError,
                       exactly("plant A must be square, got shape (2, 3)")),
    "verdict-tall-B": (lambda: verdict(b=[[1.0], [0.5]], k=[[1.0, 0.0]], s=[[0.5]]),
                       DimensionError, exactly("B must be square, got shape (2, 1)")),
    "verdict-wide-K": (lambda: verdict(k=WIDE), DimensionError,
                       exactly("policy K is 2x3, plant expects 2x2")),
    "verdict-tall-K-scalar-plant": (lambda: verdict(a=[[2.0]], b=[[1.0]], k=TALL),
                                    DimensionError, exactly("policy K is 2x1, plant expects 1x1")),
    "verdict-asymmetric": (lambda: verdict(s=ASYMMETRIC), AsymmetricMatrixError,
                           asymmetric("policy Sigma")),
    "verdict-not-pd": (lambda: verdict(s=NOT_PD), ParameterError,
                       exactly("policy Sigma must be positive definite")),
    "verdict-singular-B": (lambda: verdict(b=SINGULAR), SingularMatrixError,
                           singular(ZERO, "1.000e-12")),
    "verdict-singular-Sigma": (lambda: verdict(s=NEARLY_SINGULAR_PD), SingularMatrixError,
                               singular(NUMBER, "1.000e-12")),
    "verdict-huge-Sigma": (lambda: verdict(s=HUGE), ParameterError,
                           exactly("policy Sigma must be positive definite")),
    "verdict-huge-A": (lambda: verdict(a=HUGE), NonFiniteError, CLOSED_LOOP_OVERFLOWS),
    "verdict-tiny-g": (lambda: verdict(g=1e-200), ParameterError,
                       exactly("matrix effective gain must be positive definite")),
    "verdict-huge-g": (lambda: verdict(g=1e200), NonFiniteError, GAIN_OVERFLOWS),
    # second_order_coefficients, which checks its arrays as PlantModel and
    # ExpertPolicy do
    "second-order-bool": (lambda: second_order(b=BOOL), ParameterError,
                          exactly("plant B must hold numbers, got True")),
    "second-order-nan": (lambda: second_order(s=NAN), NonFiniteError,
                         exactly("policy Sigma contains non-finite entries")),
    "second-order-wide": (lambda: second_order(s=WIDE), DimensionError,
                          exactly("policy Sigma must be square, got shape (2, 3)")),
    "second-order-asymmetric": (lambda: second_order(s=ASYMMETRIC), AsymmetricMatrixError,
                                asymmetric("policy Sigma")),
    "second-order-not-pd": (lambda: second_order(s=NOT_PD), ParameterError,
                            exactly("policy Sigma must be positive definite")),
    "second-order-singular-B": (lambda: second_order(b=SINGULAR), SingularMatrixError,
                                singular(ZERO, "1.000e-12")),
    "second-order-singular-Sigma": (lambda: second_order(s=NEARLY_SINGULAR_PD),
                                    SingularMatrixError, singular(NUMBER, "1.000e-12")),
    "second-order-huge-A": (lambda: second_order(a=HUGE), NonFiniteError,
                            exactly("coefficient C0 = -Sigma^-1 (A - B K) contains non-finite "
                                    "entries")),
    # Sigma^-1 = 1e307 I against A = -1.75e308
    "second-order-huge-C1": (lambda: second_order(a=[[-1.75e308, 0.0], [0.0, 1.0]],
                                                  s=[[1e-307, 0.0], [0.0, 1e-307]]),
                             NonFiniteError,
                             exactly("coefficient C1 = Sigma^-1 - A contains non-finite entries")),
    # ExpertPolicy
    "policy-bool": (lambda: sk.ExpertPolicy(K=BOOL, Sigma=S), ParameterError,
                    exactly("policy K must hold numbers, got True")),
    "policy-nan": (lambda: sk.ExpertPolicy(K=K, Sigma=NAN), NonFiniteError,
                   exactly("policy Sigma contains non-finite entries")),
    "policy-wide": (lambda: sk.ExpertPolicy(K=K, Sigma=WIDE), DimensionError,
                    exactly("policy Sigma must be square, got shape (2, 3)")),
    "policy-asymmetric": (lambda: sk.ExpertPolicy(K=K, Sigma=ASYMMETRIC), AsymmetricMatrixError,
                          asymmetric("policy Sigma")),
    "policy-not-pd": (lambda: sk.ExpertPolicy(K=K, Sigma=NOT_PD), ParameterError,
                      exactly("policy Sigma must be positive definite")),
    "policy-huge": (lambda: sk.ExpertPolicy(K=K, Sigma=HUGE), ParameterError,
                    exactly("policy Sigma must be positive definite")),
    "policy-singular": (lambda: sk.ExpertPolicy(K=K, Sigma=SINGULAR), ParameterError,
                        exactly("policy Sigma must be positive definite")),
    "policy-inverse-nearly-singular": (
        lambda: sk.ExpertPolicy(K=K, Sigma=NEARLY_SINGULAR_PD).sigma_inv,
        SingularMatrixError, singular(NUMBER, "1.000e-12")),
    # augmented_matrix
    "augmented-tall-K": (lambda: sk.augmented_matrix(2.0, 1.0, TALL, 1.0), DimensionError,
                         exactly("policy K is 2x1, plant expects 1x1")),
    "augmented-tall-B": (lambda: sk.augmented_matrix(A, [[1.0], [0.0], [0.0]], K, 1.0),
                         DimensionError, exactly("plant B must have 2 rows to match A, got 3")),
    # analytic_1d
    "scalar-nan": (lambda: sk.analytic_1d(math.nan, 1.0, 2.0, 0.5, 1.0, 1.0), NonFiniteError,
                   exactly("A must be finite, got nan")),
    # analytic_1d's arguments are reals, as PlantModel's and DiffusionParams' are
    "scalar-bool-A": (lambda: sk.analytic_1d(True, 1, 3, 0.5, 1, 1), ParameterError,
                      exactly("A must be a number, got True")),
    "scalar-string-A": (lambda: sk.analytic_1d("2", 1, 3, "0.5", 1, 1), ParameterError,
                        exactly("A must be a number, got '2'")),
    "scalar-string-sigma": (lambda: sk.analytic_1d(2, 1, 3, "0.5", 1, 1), ParameterError,
                            exactly("sigma must be a number, got '0.5'")),
    "scalar-zero-sigma": (lambda: sk.analytic_1d(0.5, 1.0, 2.0, 0.0, 1.0, 1.0), ParameterError,
                          exactly("sigma must be > 0, got 0.0")),
    "scalar-gain-overflows": (lambda: sk.analytic_1d(0.5, 1.0, 2.0, 1e-200, 1.0, 1.0),
                              ParameterError,
                              exactly("effective gain g^2 alpha / sigma^2 overflows at "
                                      "sigma=1e-200, g=1.0, alpha=1.0")),
    "scalar-gain-underflows": (lambda: sk.analytic_1d(0.5, 1.0, 2.0, 1e100, 1e-200, 1.0),
                               ParameterError, exactly("effective gain must be > 0, got 0.0")),
    # DiffusionParams and CouplingConfig: an infinity is refused by name
    "diffusion-infinite-g": (lambda: sk.DiffusionParams(g=math.inf, alpha=1.0), NonFiniteError,
                             exactly("diffusion coefficient g must be finite, got inf")),
    "diffusion-infinite-alpha": (lambda: sk.DiffusionParams(g=1.0, alpha=math.inf),
                                 NonFiniteError,
                                 exactly("time-scale ratio alpha must be finite, got inf")),
    "coupling-infinite-dt-inner": (lambda: sk.CouplingConfig(mode="inner-loop", dt=0.01,
                                                             horizon=1.0, e0=[1.0], u0=[0.0],
                                                             dt_inner=math.inf),
                                   NonFiniteError, exactly("dt_inner must be finite, got inf")),
    # AxisSpec: bounds are reals and steps whole, as CouplingConfig's are
    "axis-bool-start": (lambda: sk.AxisSpec("A", True, 1, 2), ParameterError,
                        exactly("axis start must be a number, got True")),
    "axis-fractional-steps": (lambda: sk.AxisSpec("A", 0, 1, 2.5), ParameterError,
                              exactly("axis steps must be a whole number, got 2.5")),
    # matrixkit: the symmetry contract
    "symmetric-bool": (lambda: mk.check_symmetric(BOOL, "S"), ParameterError,
                       exactly("S must hold numbers, got True")),
    "symmetric-nan": (lambda: mk.check_symmetric(NAN, "S"), NonFiniteError,
                      exactly("S contains non-finite entries")),
    "symmetric-wide": (lambda: mk.check_symmetric(WIDE, "S"), DimensionError,
                       exactly("S must be square, got shape (2, 3)")),
    "symmetric-asymmetric": (lambda: mk.check_symmetric(ASYMMETRIC, "S"),
                             AsymmetricMatrixError, asymmetric("S")),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_is_refused(case):
    call, error, pattern = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert re.fullmatch(pattern, str(info.value)), str(info.value)


def test_huge_positive_definite_sigma_is_accepted():
    # 1.5e308 + 1.5e308 overflows, yet the symmetric part is Sigma itself, and
    # its pivots pass the rule; both entries judge it as the same arrays
    huge_pd = [[1.5e308, 0.0], [0.0, 1e300]]
    policy = sk.ExpertPolicy(K=K, Sigma=huge_pd)
    assert np.array_equal(policy.Sigma, huge_pd)
    got = sk.analytic_verdict(sk.PlantModel(A=A, B=B), policy, sk.DiffusionParams(g=1.0, alpha=1.0))
    assert got == sk.analytic_ndim(A, B, K, huge_pd, 1.0, 1.0)


def test_verdict_matches_ndim_on_the_same_arrays():
    plant = sk.PlantModel(A=A, B=B)
    policy = sk.ExpertPolicy(K=K, Sigma=S)
    for g in (0.3, 1.0, 2.5):
        got = sk.analytic_verdict(plant, policy, sk.DiffusionParams(g=g, alpha=1.0))
        want = sk.analytic_ndim(A, B, K, S, g, 1.0)
        assert got == want
