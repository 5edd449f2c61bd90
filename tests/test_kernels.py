"""The numpy kernels against brute-force reference implementations.

The reference loops are the second backend the test_backends_agree_* tests
compare with.
"""

import numpy as np
import pytest

from mgconsensus import _kernels


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


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_duration(seed):
    rng = np.random.default_rng(seed)
    starts, ends = _random_intervals(rng, 40)
    assert _kernels.duration_min_slack(starts, ends, 1.0, 10.0) == pytest.approx(
        _duration_oracle(starts, ends, 1.0, 10.0), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_frequency(seed):
    rng = np.random.default_rng(100 + seed)
    trans = np.sort(rng.uniform(0.0, 50.0, 30))
    assert _kernels.frequency_min_slack(trans, 2.0, 5.0) == pytest.approx(
        _frequency_oracle(trans, 2.0, 5.0), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_witness(seed):
    rng = np.random.default_rng(200 + seed)
    attempts = np.cumsum(rng.uniform(0.05, 0.5, 200))
    healthy = rng.random(200) > 0.4
    np.testing.assert_allclose(
        _kernels.witness_delays(attempts, healthy), _witness_oracle(attempts, healthy)
    )


def test_witness_delay_values():
    f = _kernels.witness_delays
    attempts = np.array([0.0, 1.0, 2.0, 3.0])
    healthy = np.array([False, False, True, False])
    out = f(attempts, healthy)
    # first two failures resolve at t=2, the last never does
    np.testing.assert_allclose(out, [2.0, 1.0, -1.0])


def test_empty_inputs():
    e = np.empty(0)
    assert _kernels.duration_min_slack(e, e, 1.0, 10.0) == np.inf
    assert _kernels.frequency_min_slack(e, 1.0, 5.0) == np.inf
    assert _kernels.witness_delays(e, np.empty(0, dtype=bool)).size == 0
