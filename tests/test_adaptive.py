import pytest

from mgconsensus.controller import actuation_estimate, delay_aggregate, scaled_input
from mgconsensus.design import certified_params
from mgconsensus.errors import CriterionViolatedError

# the self-adaptive law is the offline rule with the observed gamma as threshold


def test_delay_aggregate_weighs_degrees():
    # d_i (own + act) + d_j (nbr + act)
    assert delay_aggregate(0.02, 0.05, 0.01, 2, 3) == pytest.approx(
        2 * 0.03 + 3 * 0.06
    )


def test_adapt_params_values():
    eps, rate = certified_params(0.2, eps_margin=1.5, rate_margin=1.1, eps_floor=0.1)
    assert eps == pytest.approx(0.3)
    assert rate == pytest.approx(1.65)


def test_adapt_zero_delays_degenerates_to_floor():
    eps, rate = certified_params(0.0, 1.5, 1.1, 0.1)
    assert eps == 0.1
    assert rate == pytest.approx(0.55)
    assert rate > 0.5


def test_adapt_keeps_eps_strictly_above_gamma():
    for gamma in (0.0, 0.01, 0.5, 3.0):
        eps, rate = certified_params(gamma, 1.5, 1.1, 0.1)
        assert eps > gamma
        assert rate > 0.5


def test_adapt_validation():
    with pytest.raises(ValueError):
        certified_params(0.1, 1.0, 1.1, 0.1)
    with pytest.raises(ValueError):
        certified_params(0.1, 1.5, 0.9, 0.1)
    # a zero floor fails the eps > gamma criterion only where gamma = 0
    with pytest.raises(CriterionViolatedError):
        certified_params(0.0, 1.5, 1.1, 0.0)


def test_scaled_input_shrinks_towards_budget():
    assert scaled_input(1, theta=0.2, rate=1.0, phi_act=0.1) == pytest.approx(2 / 3)
    assert scaled_input(-1, 0.2, 1.0, 0.1) == pytest.approx(-2 / 3)
    assert scaled_input(0, 0.2, 1.0, 0.1) == 0.0
    assert scaled_input(1, 0.2, 1.0, 0.0) == pytest.approx(1.0)


def test_scaled_input_matches_worst_case_displacement():
    # applying u' over the whole span displaces exactly as much as the raw
    # ternary input applied only after the worst admissible actuation delay
    for theta, rate, phi in [(0.2, 1.0, 0.1), (0.5, 2.0, 0.3), (0.05, 0.55, 1.0)]:
        span = theta / rate
        up = scaled_input(1, theta, rate, phi)
        worst_delay = span * phi / (span + phi)
        assert up * span == pytest.approx(1.0 * (span - worst_delay), abs=1e-12)
        assert abs(up * span) <= span


def test_actuation_estimate():
    assert actuation_estimate(10.0, 10.3, 0.05) == pytest.approx(0.35)
