"""The numpy kernels against brute-force reference implementations.

The reference loops are the second backend the test_backends_agree_* tests
compare with: O(n^2) pair scans against the O(n) prefix-minimum kernels.
`_generate_oracle` is `generate_sequence` with one scalar `rng.exponential`
call per draw, against the block draws it makes now, and
`_worst_case_reference` is `worst_case_sequence`. Both place their windows
through `_BudgetState`, the per-window budget object the one placer of
`attacks.py` replaced.
"""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgconsensus.attacks import (
    _MIN_ATTACK_LEN,
    DosParams,
    _exponentials,
    duration_min_slack,
    frequency_min_slack,
    generate_sequence,
    verify_sequence,
    witness_delays,
    worst_case_sequence,
)


BUNDLED_NODE = DosParams(1.0, 0.0304434, 10.0, 25.0, 0.01)
BUNDLED_COMM = DosParams(1.0, 0.5, 8.0, 10.0, 0.01)


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


class _BudgetState:
    """Both budgets' running state over the windows generated so far: the
    reference for `attacks._place_windows`, one method call per step.

    A new window [t, t + L) must keep every pair (p, new) within budget:
    t >= s_p + tau_f (n - p + 1 - eta) and L <= (kappa + (t - s_p) / tau_d
    - acc_p) / (1 - 1/tau_d), acc_p being the attacked time since s_p. The
    binding p (argmax of s_p - tau_f p, argmin of cum_p - s_p / tau_d) does
    not depend on t or later windows, so each budget keeps that one anchor
    and evaluates its pair's expression there: O(1) per window.
    """

    def __init__(self, p: DosParams, horizon: float):
        self.p, self.horizon = p, horizon
        self.windows: list[tuple[float, float]] = []
        self.f_idx = self.f_start = None  # frequency anchor: index and start
        self.d_start = self.d_acc = None  # duration anchor: start, attacked time since

    def earliest_start(self, t: float) -> float:
        """Earliest start >= t keeping the frequency budget intact."""
        n = len(self.windows)
        if n:
            t = max(t, self.f_start + self.p.tau_f * (n - self.f_idx + 1 - self.p.eta))
        return t

    def longest_length(self, t: float) -> float:
        """Longest window starting at t that keeps the duration budget intact."""
        p = self.p
        denom = 1.0 - 1.0 / p.tau_d
        lmax = p.kappa / denom  # pair (new, new)
        if self.windows:
            lmax = min(lmax, (p.kappa + (t - self.d_start) / p.tau_d - self.d_acc) / denom)
        return min(lmax, self.horizon - t)

    def push(self, start: float, length: float) -> float:
        """Append the window [start, start + length) and return its end."""
        p, n = self.p, len(self.windows)
        if not n or start - p.tau_f * n > self.f_start - p.tau_f * self.f_idx:
            self.f_idx, self.f_start = n, start
        # the new key cum_n - start / tau_d is lower by (start - d_start) / tau_d - d_acc
        if not n or (start - self.d_start) / p.tau_d > self.d_acc:
            self.d_start, self.d_acc = start, length
        else:
            self.d_acc += length
        self.windows.append((start, start + length))
        return start + length


def _worst_case_reference(p, horizon):
    """The windows of `worst_case_sequence`, placed through `_BudgetState`,
    and how many times the start waited for the duration budget to refill."""
    if p.eta < 1.0 or p.kappa <= 0.0:
        return (), 0
    budget = _BudgetState(p, horizon)
    waits = 0
    t_s = 0.0
    while t_s < horizon:
        t_s = budget.earliest_start(t_s)
        if t_s >= horizon:
            break
        length = budget.longest_length(t_s)
        if length < _MIN_ATTACK_LEN:
            # duration budget exhausted at this anchor; wait for it to refill
            t_s += max(p.tau_d * _MIN_ATTACK_LEN, 1e-3)
            waits += 1
            continue
        t_s = budget.push(t_s, length)
    return tuple(budget.windows), waits


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
    starts, ends = s.bounds[0::2], s.bounds[1::2]
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
@pytest.mark.parametrize("p", [BUNDLED_NODE, BUNDLED_COMM],
                         ids=["bundled-node-budget", "bundled-comm-budget"])
def test_block_draws_match_scalar_draws_on_bundled_budgets(p, horizon):
    # at 8,000 s each channel holds some 600 windows
    counts = []
    for seed in range(4):
        got = generate_sequence(p, horizon, seed).intervals
        assert got == _generate_oracle(p, horizon, seed)
        counts.append(len(got))
    assert horizon < 100.0 or min(counts) > 400


def test_block_draws_match_scalar_draws_through_dropped_windows():
    # length caps average 1e-5, so some 1 in 13 candidates draws a cap below
    # 1e-6 and is dropped; the next gap starts at the dropped start, no wait
    p = DosParams(1.0, 1e-5, 1.0, 2.0, 0.01)
    for seed in range(4):
        got = generate_sequence(p, 200.0, seed).intervals
        assert got == _generate_oracle(p, 200.0, seed)
        assert len(got) > 100


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, rather than hang, once `seconds` of wall time pass."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("p, horizon, waits", [
    (BUNDLED_NODE, 20.0, 0),
    (BUNDLED_NODE, 8000.0, 0),
    (BUNDLED_COMM, 20.0, 0),
    (BUNDLED_COMM, 8000.0, 0),
    # the duration budget runs dry three times, and the start waits for it
    (DosParams(3.0, 2.0, 2.0, 3.0, 0.01), 2000.0, 3),
    # eta = 1 and a tau_f with no exact binary form: each window's frequency
    # key ties the anchor's up to rounding, and only a strict rise moves it
    (DosParams(1.0, 0.05, 0.7, 10.0, 0.01), 20.0, 0),
    (DosParams(0.5, 1.0, 5.0, 10.0, 0.1), 100.0, 0),
    (DosParams(1.0, 0.0, 5.0, 10.0, 0.1), 100.0, 0),
], ids=["node-20", "node-8000", "comm-20", "comm-8000", "waits", "frequency-ties",
        "eta-below-1", "kappa-0"])
def test_worst_case_matches_the_reference_loop(p, horizon, waits):
    with _deadline(10.0):  # a placer that stops waiting loops in place
        got = worst_case_sequence(p, horizon).intervals
    want, want_waits = _worst_case_reference(p, horizon)
    assert got == want
    assert want_waits == waits


def test_degenerate_duration_budget_returns_the_empty_trace_at_once():
    # kappa / (1 - 1/tau_d) < 1e-6: no window fits. Stepping the horizon in
    # 1 ms waits would take some 10^9 steps here
    p = DosParams(1.0, 1e-7, 5.0, 10.0, 0.1)
    with _deadline(2.0):
        assert worst_case_sequence(p, 1e6).intervals == ()
        assert generate_sequence(p, 1e6, 0).intervals == ()
    assert _generate_oracle(p, 200.0, 0) == ()
    assert _worst_case_reference(p, 20.0)[0] == ()


@pytest.mark.parametrize("size", [1, 2, 5])
def test_exponential_blocks_keep_the_scalar_stream(size):
    # the blocks double 1 -> 2 -> 4 ...: 100 draws cross several of them
    scale = 0.75
    draw = _exponentials(np.random.default_rng(7), (scale,), size).__next__
    blocks = [draw() for _ in range(100)]
    rng = np.random.default_rng(7)
    assert blocks == [rng.exponential(scale) for _ in range(100)]


@pytest.mark.parametrize("size", [1, 2, 5])
def test_alternating_scales_keep_the_scalar_stream(size):
    # a gap and a length per window, as `generate_sequence` draws them; with an
    # odd size, every other block starts on a length
    draw = _exponentials(np.random.default_rng(7), (10.0, 0.03), size).__next__
    blocks = [draw() for _ in range(101)]
    rng = np.random.default_rng(7)
    assert blocks == [rng.exponential((10.0, 0.03)[k % 2]) for k in range(101)]
