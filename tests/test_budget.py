import math

import pytest
from hypothesis import given, settings, strategies as st

from ldpsim import budget
from ldpsim.errors import ParameterError

LOG2E = math.log2(math.e)


def test_alpha_from_epsilon_examples():
    assert budget.alpha_from_epsilon(1.0, 45222, 74) == pytest.approx(LOG2E)
    assert budget.alpha_from_epsilon(0.5, 2**10, 2**10) == pytest.approx(0.25 * LOG2E)
    assert budget.alpha_from_epsilon(100.0, 16, 1024) == pytest.approx(4.0)


def test_alpha_from_bayes_error_examples():
    assert budget.alpha_from_bayes_error(0.5, 45222) == pytest.approx(
        0.5 * math.log2(45222) - 1.0
    )
    assert budget.alpha_from_bayes_error(0.5, 45222) == pytest.approx(6.732, abs=1e-3)
    assert budget.alpha_from_bayes_error(0.999999, 1000) == 0.0
    assert budget.alpha_from_bayes_error(0.9, 2**20) == pytest.approx(1.0)


def test_bayes_clamp_flag():
    assert budget.bayes_alpha_clamped(0.95, 45222)
    assert not budget.bayes_alpha_clamped(0.5, 45222)


def test_epsilon_from_alpha_examples():
    eps = budget.epsilon_from_alpha(2.0, 10**9, 4)
    assert eps == math.inf
    eps = budget.epsilon_from_alpha(LOG2E, 45222, 74)
    assert eps < math.inf
    assert eps == pytest.approx(1.0)
    eps = budget.epsilon_from_alpha(0.25 * LOG2E, 10**9, 74)
    assert eps == pytest.approx(0.5)
    eps = budget.epsilon_from_alpha(0.3607, 10**9, 74)
    assert eps == pytest.approx(0.5, abs=1e-4)


def test_epsilon_from_alpha_zero_sentinel():
    eps = budget.epsilon_from_alpha(0.0, 10**6, 64)
    assert eps == 0.0


def test_beta_epsilons():
    # alpha ~ 6.73 already covers log2(74) ~ 6.21, so k = 74 passes through
    eps, flags = budget.beta_epsilons(0.5, 45222, [74, 1024])
    assert eps[0] == math.inf
    assert 0 < eps[1] < math.inf
    assert flags == []
    # beta = 0.95 clamps alpha at 0, which admits no randomizer for any k
    eps, flags = budget.beta_epsilons(0.95, 45222, [74, 1024, 2])
    assert flags == ["alpha_clamped", "epsilon_floor"]
    assert eps == [budget.EPSILON_FLOOR] * 3
    with pytest.raises(ParameterError):
        budget.beta_epsilons(1.0, 45222, [74])


def test_parameter_validation():
    with pytest.raises(ParameterError):
        budget.alpha_from_epsilon(0.0, 100, 4)
    with pytest.raises(ParameterError):
        budget.alpha_from_bayes_error(1.0, 100)
    with pytest.raises(ParameterError):
        budget.alpha_from_bayes_error(0.5, 1)
    with pytest.raises(ParameterError):
        budget.epsilon_from_alpha(-0.1, 100, 4)


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(min_value=1e-6, max_value=10.0))
def test_round_trip_when_caps_do_not_bind(eps):
    n = k = 2**40  # caps sit far above every epsilon term on (0, 10]
    alpha = budget.alpha_from_epsilon(eps, n, k)
    back = budget.epsilon_from_alpha(alpha, n, k)
    assert back < math.inf
    assert back == pytest.approx(eps, abs=1e-9, rel=1e-9)


def test_round_trip_dense_grid():
    n = k = 2**40
    for i in range(1, 101):
        eps = 10.0 * i / 100
        alpha = budget.alpha_from_epsilon(eps, n, k)
        back = budget.epsilon_from_alpha(alpha, n, k)
        assert abs(back - eps) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    e1=st.floats(min_value=1e-3, max_value=10.0),
    e2=st.floats(min_value=1e-3, max_value=10.0),
)
def test_alpha_monotone_in_epsilon(e1, e2):
    lo, hi = sorted((e1, e2))
    assert budget.alpha_from_epsilon(lo, 10**6, 256) <= budget.alpha_from_epsilon(
        hi, 10**6, 256
    ) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    b1=st.floats(min_value=0.01, max_value=0.99),
    b2=st.floats(min_value=0.01, max_value=0.99),
)
def test_alpha_nonincreasing_in_beta(b1, b2):
    lo, hi = sorted((b1, b2))
    assert budget.alpha_from_bayes_error(hi, 10**6) <= budget.alpha_from_bayes_error(
        lo, 10**6
    ) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=40.0),
    n=st.integers(min_value=2, max_value=2**30),
    k=st.integers(min_value=2, max_value=2**20),
)
def test_pass_through_soundness(alpha, n, k):
    if budget.epsilon_from_alpha(alpha, n, k) == math.inf:
        # even the raw value stays within the budget's own cap
        assert min(math.log2(k), math.log2(n)) <= alpha
