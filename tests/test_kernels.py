"""The numpy kernels against brute-force reference implementations.

The reference loops are the second backend the test_backends_agree_* tests
compare with: O(n^2) pair scans against the O(n) prefix-minimum kernels.
`_generate_oracle` is `generate_sequence` with one scalar `rng.exponential`
call per draw, against the block draws it makes now.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgconsensus.attacks import (
    _MIN_ATTACK_LEN,
    DosParams,
    _BudgetState,
    _exponentials,
    duration_min_slack,
    frequency_min_slack,
    generate_sequence,
    verify_sequence,
    witness_delays,
)


def _random_intervals(rng, n, horizon=100.0):
    points = np.sort(rng.uniform(0.0, horizon, 2 * n))
    return points[0::2], points[1::2]


def _duration_oracle(starts, ends, kappa, tau_d):
    best = np.inf
    n = len(starts)
    for p in range(n):
        acc = 0.0
        for q in range(p, n):
            acc += ends[q] - starts[q]
            best = min(best, kappa + (ends[q] - starts[p]) / tau_d - acc)
    return best


def _frequency_oracle(trans, eta, tau_f):
    best = np.inf
    n = len(trans)
    for p in range(n):
        for q in range(p, n):
            best = min(best, eta + (trans[q] - trans[p]) / tau_f - (q - p + 1))
    return best


def _witness_oracle(attempts, healthy):
    out = []
    j = 0  # shared pointer to the next healthy attempt
    for k in range(len(attempts)):
        if healthy[k]:
            continue
        j = max(j, k + 1)
        while j < len(attempts) and not healthy[j]:
            j += 1
        out.append(attempts[j] - attempts[k] if j < len(attempts) else -1.0)
    return np.array(out)


def _generate_oracle(p, horizon, seed):
    """The windows of `generate_sequence`, drawing each gap and length with
    its own `rng.exponential(scale)` call."""
    if p.eta < 1.0 or p.kappa <= 0.0:
        return ()
    rng = np.random.default_rng(seed)
    budget = _BudgetState(p, horizon)
    mean_len = min(p.kappa, p.tau_d / 4.0)
    t_end = 0.0
    while True:
        t_s = t_end + rng.exponential(p.tau_f)
        if t_s >= horizon:
            break
        t_s = budget.earliest_start(t_s)
        if t_s >= horizon:
            break
        length = min(budget.longest_length(t_s), rng.exponential(mean_len))
        if length < _MIN_ATTACK_LEN:
            t_end = t_s
            continue
        t_end = budget.push(t_s, length)
    return tuple(budget.windows)


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_duration(seed):
    rng = np.random.default_rng(seed)
    starts, ends = _random_intervals(rng, 40)
    assert duration_min_slack(starts, ends, 1.0, 10.0) == pytest.approx(
        _duration_oracle(starts, ends, 1.0, 10.0), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_frequency(seed):
    rng = np.random.default_rng(100 + seed)
    trans = np.sort(rng.uniform(0.0, 50.0, 30))
    assert frequency_min_slack(trans, 2.0, 5.0) == pytest.approx(
        _frequency_oracle(trans, 2.0, 5.0), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_witness(seed):
    rng = np.random.default_rng(200 + seed)
    attempts = np.cumsum(rng.uniform(0.05, 0.5, 200))
    healthy = rng.random(200) > 0.4
    np.testing.assert_allclose(
        witness_delays(attempts, healthy), _witness_oracle(attempts, healthy)
    )


def test_witness_delay_values():
    f = witness_delays
    attempts = np.array([0.0, 1.0, 2.0, 3.0])
    healthy = np.array([False, False, True, False])
    out = f(attempts, healthy)
    # first two failures resolve at t=2, the last never does
    np.testing.assert_allclose(out, [2.0, 1.0, -1.0])


def test_empty_inputs():
    e = np.empty(0)
    assert duration_min_slack(e, e, 1.0, 10.0) == np.inf
    assert frequency_min_slack(e, 1.0, 5.0) == np.inf
    assert witness_delays(e, np.empty(0, dtype=bool)).size == 0


def test_single_window():
    starts, ends = np.array([2.0]), np.array([3.5])
    assert duration_min_slack(starts, ends, 1.0, 10.0) == pytest.approx(
        1.0 + 1.5 / 10.0 - 1.5, rel=1e-15
    )
    assert frequency_min_slack(starts, 2.5, 5.0) == 1.5


def test_tied_starts():
    # three transitions at one instant count three within a zero-length gap
    trans = np.array([1.0, 1.0, 1.0, 6.0])
    assert frequency_min_slack(trans, 3.0, 5.0) == pytest.approx(0.0, abs=1e-15)
    assert frequency_min_slack(trans, 3.0, 5.0) == pytest.approx(
        _frequency_oracle(trans, 3.0, 5.0), abs=1e-15
    )
    # a zero-length window sharing its start with the next one
    starts, ends = np.array([1.0, 1.0, 6.0]), np.array([1.0, 2.0, 6.5])
    assert duration_min_slack(starts, ends, 0.5, 10.0) == pytest.approx(
        _duration_oracle(starts, ends, 0.5, 10.0), rel=1e-14
    )
    assert duration_min_slack(starts, ends, 0.5, 10.0) == pytest.approx(
        0.5 + 5.5 / 10.0 - 1.5, rel=1e-14  # anchored at 1.0, ending at 6.5
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eta=st.floats(1.0, 4.0),
    kappa=st.floats(0.05, 3.0),
    tau_f=st.floats(1.0, 20.0),
    tau_d=st.floats(1.5, 30.0),
)
def test_generated_traces_verify_and_match_oracles(seed, eta, kappa, tau_f, tau_d):
    p = DosParams(eta, kappa, tau_f, tau_d, delta_star=min(0.1, tau_f * 0.5))
    s = generate_sequence(p, 200.0, seed)
    rep = verify_sequence(s, p)
    assert rep.ok, rep.violations
    starts, ends = np.array(s.starts), np.array(s.ends)
    if starts.size:
        assert rep.frequency_slack == pytest.approx(
            _frequency_oracle(starts, eta, tau_f), abs=1e-12
        )
        assert rep.duration_slack == pytest.approx(
            _duration_oracle(starts, ends, kappa, tau_d), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(1.0, 4.0),
    kappa=st.floats(0.01, 3.0),
    tau_f=st.floats(1.0, 40.0),
    tau_d=st.floats(1.5, 30.0),
    horizon=st.floats(20.0, 8000.0),
)
def test_block_draws_match_scalar_draws(seed, eta, kappa, tau_f, tau_d, horizon):
    p = DosParams(eta, kappa, tau_f, tau_d, delta_star=min(0.1, tau_f * 0.5))
    assert generate_sequence(p, horizon, seed).intervals == _generate_oracle(p, horizon, seed)


@pytest.mark.parametrize("horizon", [20.0, 8000.0])
@pytest.mark.parametrize("p", [DosParams(1.0, 0.0304434, 10.0, 25.0, 0.01),
                               DosParams(1.0, 0.5, 8.0, 10.0, 0.01)],
                         ids=["bundled-node-budget", "bundled-comm-budget"])
def test_block_draws_match_scalar_draws_on_bundled_budgets(p, horizon):
    # at 8,000 s each channel holds some 600 windows
    counts = []
    for seed in range(4):
        got = generate_sequence(p, horizon, seed).intervals
        assert got == _generate_oracle(p, horizon, seed)
        counts.append(len(got))
    assert horizon < 100.0 or min(counts) > 400


@pytest.mark.parametrize("size", [1, 2, 5])
def test_exponential_blocks_keep_the_scalar_stream(size):
    # the blocks double 1 -> 2 -> 4 ...: 100 draws cross several of them
    scale = 0.75
    draw = _exponentials(np.random.default_rng(7), size).__next__
    blocks = [scale * draw() for _ in range(100)]
    rng = np.random.default_rng(7)
    assert blocks == [rng.exponential(scale) for _ in range(100)]
