import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO
from mgconsensus import load_scenario
from mgconsensus.attacks import (
    _MIN_ATTACK_LEN,
    ChannelSet,
    DosParams,
    DosSequence,
    channel_seed,
    generate_channel_set,
    generate_sequence,
    podf_bound,
    podf_witness,
    verify_sequence,
    worst_case_sequence,
)
from mgconsensus.errors import AttemptSpacingError, BudgetInfeasibleError
from mgconsensus.topology import load_topology


def test_params_validation():
    with pytest.raises(ValueError, match="eta must be >= 0"):
        DosParams(-1.0, 1.0, 5.0, 10.0, 0.1)
    with pytest.raises(ValueError, match="tau_f must be > 0"):
        DosParams(1.0, 1.0, 0.0, 10.0, 0.1)
    with pytest.raises(ValueError, match="delta_star must be > 0"):
        DosParams(1.0, 1.0, 5.0, 10.0, 0.0)


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_must_be_finite(k, value):
    fields = [1.0, 1.0, 5.0, 10.0, 0.1]
    fields[k] = value
    with pytest.raises(ValueError, match="finite"):
        DosParams(*fields)


def test_duty_ratio_and_bound():
    p = DosParams(eta=1.0, kappa=1.0, tau_f=5.0, tau_d=10.0, delta_star=0.1)
    assert p.duty_ratio == pytest.approx(0.12)
    assert podf_bound(p) == pytest.approx(1.3636363636363635)


def test_bound_infeasible_when_duty_too_high():
    p = DosParams(eta=1.0, kappa=1.0, tau_f=1.0, tau_d=1.0, delta_star=0.5)
    with pytest.raises(BudgetInfeasibleError):
        podf_bound(p)


def test_scaled_weakens_both_budgets():
    p = DosParams(1.0, 1.0, 5.0, 10.0, 0.1).scaled(0.5)
    assert (p.eta, p.kappa, p.tau_f, p.tau_d) == (0.5, 0.5, 10.0, 20.0)
    assert p.delta_star == 0.1


def test_sequence_validation():
    with pytest.raises(ValueError):
        DosSequence(((1.0, 0.5),), 10.0)
    with pytest.raises(ValueError):
        DosSequence(((0.0, 2.0), (1.0, 3.0)), 10.0)
    with pytest.raises(ValueError):
        DosSequence(((5.0, 11.0),), 10.0)
    for horizon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            DosSequence((), horizon)
        with pytest.raises(ValueError, match="finite"):  # before any draw
            generate_sequence(DosParams(1.0, 1.0, 5.0, 10.0, 0.1), horizon, 0)


def test_half_open_windows():
    s = DosSequence(((1.0, 2.0), (4.0, 5.0)), 10.0)
    assert s.health(1.0) == (False, 2.0)
    assert s.health(1.999) == (False, 2.0)
    assert s.health(2.0) == (True, 4.0)  # attempt exactly at the end succeeds
    assert s.health(0.5) == (True, 1.0)
    assert s.health(5.0) == (True, float("inf"))


def _reference_check(intervals, horizon):
    """The per-window check `DosSequence` ran while it stored the windows as
    tuples: ValueError unless they are sorted, disjoint and inside [0, horizon]."""
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    prev_end = 0.0
    for s, e in intervals:
        if not (0.0 <= s < e <= horizon):
            raise ValueError(f"interval [{s}, {e}) outside [0, {horizon})")
        if s < prev_end:
            raise ValueError("intervals must be sorted and disjoint")
        prev_end = e


@st.composite
def _candidate_windows(draw):
    """Windows cut from sorted points that repeat often (touching and
    zero-length windows), then up to two edits: a swap of neighbouring
    boundaries (a reversed or an overlapping window) or a boundary that is NaN,
    infinite, negative or past the horizon."""
    point = st.sampled_from([0.0, 1.0, 2.5, 4.0, 10.0]) | st.floats(0.0, 10.0)
    cuts = sorted(draw(st.lists(point, max_size=12)))
    bounds = cuts[: len(cuts) // 2 * 2]
    odd = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 10.5]) | st.floats()
    for _ in range(draw(st.integers(0, 2)) if bounds else 0):
        k = draw(st.integers(0, len(bounds) - 1))
        if k + 1 < len(bounds) and draw(st.booleans()):
            bounds[k], bounds[k + 1] = bounds[k + 1], bounds[k]
        else:
            bounds[k] = draw(odd)
    return [(bounds[k], bounds[k + 1]) for k in range(0, len(bounds), 2)]


@given(_candidate_windows(),
       st.sampled_from([10.0, 10.0, 10.0, 4.0, 0.0, -1.0, math.nan, math.inf]))
@settings(max_examples=500, deadline=None)
def test_constructor_matches_the_per_window_check(windows, horizon):
    try:
        _reference_check(windows, horizon)
    except ValueError:
        with pytest.raises(ValueError):
            DosSequence(windows, horizon)
        return
    got = DosSequence(windows, horizon).intervals
    assert all(type(b) is float for w in got for b in w)
    assert repr(got) == repr(tuple(windows))  # float for float, -0.0 included


def test_attacked_copies_nothing_per_call():
    # memory linear in the query, not in the trace: 20,000 windows as float
    # arrays would take 160 KB each
    s = DosSequence(tuple((2.0 * k, 2.0 * k + 1.0) for k in range(20_000)), 40_000.0)
    points = np.linspace(0.0, 40_000.0, 10)
    s.attacked(points)  # any one-time allocation falls outside the measurement
    tracemalloc.start()
    try:
        s.attacked(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, f"attacked allocated {peak} bytes for 10 points"


@st.composite
def _sequences_and_points(draw):
    """Sorted disjoint windows, some touching the one before, and query points
    that include every window start and end, a point on each side of them, and
    random points."""
    cuts = sorted(set(draw(st.lists(st.floats(0.0, 10.0), max_size=12))))
    touch = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
    windows, k = [], 0
    while k + 1 < len(cuts):
        windows.append((cuts[k], cuts[k + 1]))
        k += 1 if touch[k] else 2  # a touching window starts where this one ends
    edges = [b for w in windows for b in w]
    points = edges + [np.nextafter(b, -np.inf) for b in edges] + \
        [np.nextafter(b, np.inf) for b in edges] + [0.0, 10.0] + \
        draw(st.lists(st.floats(-1.0, 11.0), max_size=20))
    return DosSequence(windows, 10.0), points


@given(_sequences_and_points())
@settings(max_examples=200, deadline=None)
def test_vectorised_query_matches_health(case):
    # health holds from the query up to the next window boundary
    s, points = case
    got = s.attacked(points)
    assert got.dtype == bool and got.shape == (len(points),)
    bounds = [b for w in s.intervals for b in w]
    for t, attacked in zip(points, got.tolist()):
        assert attacked == any(a <= t < b for a, b in s.intervals)
        healthy, until = s.health(float(t))
        assert (healthy, until) == (not attacked, min((b for b in bounds if b > t),
                                                      default=float("inf")))
        assert type(healthy) is bool and type(until) is float  # no numpy scalars


def test_verify_accepts_within_budget():
    p = DosParams(2.0, 2.0, 5.0, 10.0, 0.1)
    s = DosSequence(((1.0, 1.5), (8.0, 8.5)), 20.0)
    rep = verify_sequence(s, p)
    assert rep.ok and not rep.violations


def test_verify_flags_duration_violation():
    p = DosParams(2.0, 0.5, 5.0, 10.0, 0.1)
    s = DosSequence(((1.0, 2.0),), 20.0)  # 1.0 attacked vs 0.5 + 1/10
    rep = verify_sequence(s, p)
    assert not rep.ok
    assert any("duration" in v for v in rep.violations)


def test_verify_flags_frequency_violation():
    p = DosParams(1.0, 5.0, 10.0, 100.0, 0.1)
    s = DosSequence(((1.0, 1.1), (2.0, 2.1), (3.0, 3.1)), 20.0)
    rep = verify_sequence(s, p)
    assert not rep.ok
    assert any("frequency" in v for v in rep.violations)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eta=st.floats(1.0, 4.0),
    kappa=st.floats(0.1, 3.0),
    tau_f=st.floats(1.0, 20.0),
    tau_d=st.floats(1.5, 30.0),
)
def test_generated_sequences_always_verify(seed, eta, kappa, tau_f, tau_d):
    p = DosParams(eta, kappa, tau_f, tau_d, delta_star=min(0.1, tau_f * 0.5))
    s = generate_sequence(p, 60.0, seed)
    rep = verify_sequence(s, p)
    assert rep.ok, rep.violations


def test_generation_is_deterministic():
    p = DosParams(1.0, 1.0, 5.0, 10.0, 0.1)
    a, b, c = (generate_sequence(p, 50.0, seed) for seed in (7, 7, 8))
    assert (a.intervals, a.horizon) == (b.intervals, b.horizon)
    assert a.intervals != c.intervals


def test_no_attacks_possible_below_unit_offsets():
    assert generate_sequence(DosParams(0.5, 1.0, 5.0, 10.0, 0.1), 50.0, 1).intervals == ()
    assert generate_sequence(DosParams(1.0, 0.0, 5.0, 10.0, 0.1), 50.0, 1).intervals == ()


@pytest.mark.parametrize("p", [DosParams(1.0, 0.0304434, 10.0, 25.0, 0.01),
                               DosParams(1.0, 0.5, 8.0, 10.0, 0.01)],
                         ids=["bundled-node-budget", "bundled-comm-budget"])
def test_intensity_below_one_over_eta_removes_the_class(p):
    # `scaled` multiplies eta and kappa by the intensity and divides tau_f and
    # tau_d by it: at 0.5 the bundled eta = 1 falls to 0.5, and no window fits
    q = p.scaled(0.5)
    assert q == DosParams(p.eta * 0.5, p.kappa * 0.5, p.tau_f / 0.5, p.tau_d / 0.5,
                          p.delta_star)
    assert all(generate_sequence(q, 8000.0, seed).intervals == () for seed in range(3))
    assert worst_case_sequence(q, 8000.0).intervals == ()
    # an eta = 2 budget keeps eta = 1 at that intensity, and still attacks
    q2 = DosParams(2.0, p.kappa, p.tau_f, p.tau_d, p.delta_star).scaled(0.5)
    assert q2.eta == 1.0
    assert generate_sequence(q2, 8000.0, 0).intervals
    assert worst_case_sequence(q2, 8000.0).intervals


def test_sweep_intensity_below_one_removes_the_bundled_class():
    scen = load_scenario(SCENARIO)
    for cls, kind in (("measurement", "meas"), ("actuation", "act"), ("communication", "comm")):
        ch = scen.build_channels(cls, 0.5)
        assert all(not seq.intervals for key, seq in ch.sequences.items() if key[0] == kind)
        assert any(seq.intervals for key, seq in ch.sequences.items() if key[0] != kind)


def test_generation_infeasible_duty():
    with pytest.raises(BudgetInfeasibleError):
        generate_sequence(DosParams(1.0, 1.0, 1.0, 1.0, 0.5), 50.0, 1)


def test_worst_case_verifies_and_is_tight():
    p = DosParams(1.0, 1.0, 5.0, 10.0, 0.1)
    s = worst_case_sequence(p, 100.0)
    assert s.intervals
    rep = verify_sequence(s, p)
    assert rep.ok
    assert min(rep.frequency_slack, rep.duration_slack) < 1e-6


def test_witness_within_bound_on_worst_case():
    p = DosParams(1.0, 1.0, 5.0, 10.0, 0.1)
    s = worst_case_sequence(p, 100.0)
    attempts = np.arange(0.0, 100.0, p.delta_star)
    rep = podf_witness(s, p, attempts)
    assert rep.n_failed > 0
    assert rep.ok
    assert rep.max_delay <= rep.bound + 1e-9
    assert rep.bound == pytest.approx(1.3636363636363635)


def test_witness_rejects_tight_spacing():
    p = DosParams(1.0, 1.0, 5.0, 10.0, 0.5)
    s = DosSequence(((1.0, 2.0),), 10.0)
    with pytest.raises(AttemptSpacingError):
        podf_witness(s, p, [0.0, 0.1, 0.2])


def test_channel_set_roundtrip():
    topo = load_topology([[0, 1], [1, 0]])
    p = DosParams(1.0, 1.0, 5.0, 10.0, 0.1)
    cs = generate_channel_set(topo, [p, p], [p, p], {(0, 1): p}, 30.0, 42)
    cs.check_complete(topo, topo.edges)
    clone = ChannelSet.from_dict(cs.to_dict())
    assert clone.sequences.keys() == cs.sequences.keys()
    for key, seq in cs.sequences.items():
        assert (clone.sequences[key].intervals, clone.sequences[key].horizon) == \
            (seq.intervals, seq.horizon)
    assert clone.params == cs.params


def test_channel_seeds_distinct_and_stable():
    assert channel_seed(42, ("meas", 0)) == channel_seed(42, ("meas", 0))
    seeds = {
        channel_seed(42, key)
        for key in [("meas", 0), ("meas", 1), ("act", 0), ("comm", 0, 1)]
    }
    assert len(seeds) == 4


# --- quadratic reference generators -------------------------------------
# The generators as first written: every new window rescans all earlier ones
# and rebuilds the attacked time since each of them. The linear-time
# generators must return exactly the same windows.

def _oracle_start(starts, t, eta, tau_f):
    n = len(starts)
    for idx, s_p in enumerate(starts):
        need = s_p + tau_f * (n - idx + 1 - eta)
        if need > t:
            t = need
    return t


def _oracle_len(starts, cum_tail, t_s, kappa, tau_d, horizon):
    denom = 1.0 - 1.0 / tau_d
    lmax = kappa / denom
    for s_p, acc in zip(starts, cum_tail):
        allowed = (kappa + (t_s - s_p) / tau_d - acc) / denom
        if allowed < lmax:
            lmax = allowed
    return min(lmax, horizon - t_s)


def _oracle_generate(p, horizon, seed):
    if p.eta < 1.0 or p.kappa <= 0.0:
        return ()
    rng = np.random.default_rng(seed)
    starts, ends, cum_tail = [], [], []
    mean_len = min(p.kappa, p.tau_d / 4.0)
    t_end = 0.0
    while True:
        t_s = t_end + rng.exponential(p.tau_f)
        if t_s >= horizon:
            break
        t_s = _oracle_start(starts, t_s, p.eta, p.tau_f)
        if t_s >= horizon:
            break
        lmax = _oracle_len(starts, cum_tail, t_s, p.kappa, p.tau_d, horizon)
        length = min(lmax, rng.exponential(mean_len))
        if length < _MIN_ATTACK_LEN:
            t_end = t_s
            continue
        starts.append(t_s)
        ends.append(t_s + length)
        cum_tail = [c + length for c in cum_tail] + [length]
        t_end = t_s + length
    return tuple(zip(starts, ends))


def _oracle_worst_case(p, horizon):
    if p.eta < 1.0 or p.kappa <= 0.0:
        return ()
    starts, ends, cum_tail = [], [], []
    t_s = 0.0
    while t_s < horizon:
        t_s = _oracle_start(starts, t_s, p.eta, p.tau_f)
        if t_s >= horizon:
            break
        length = _oracle_len(starts, cum_tail, t_s, p.kappa, p.tau_d, horizon)
        if length < _MIN_ATTACK_LEN:
            t_s += max(p.tau_d * _MIN_ATTACK_LEN, 1e-3)
            continue
        starts.append(t_s)
        ends.append(t_s + length)
        cum_tail = [c + length for c in cum_tail] + [length]
        t_s = ends[-1]
    return tuple(zip(starts, ends))


def _random_budgets(seed, count):
    """Criterion-3 style budgets (delta_star of the meas and comm classes)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        p = DosParams(
            eta=float(rng.uniform(1.0, 4.0)),
            kappa=float(rng.uniform(0.05, 2.0)),
            tau_f=float(rng.uniform(2.0, 20.0)),
            tau_d=float(rng.uniform(2.5, 30.0)),
            delta_star=(0.01, 0.15623762376237624)[k % 2],
        )
        yield p, int(rng.integers(1 << 31))


def test_generation_matches_quadratic_oracle():
    budgets = list(_random_budgets(31, 1000))
    for p, seed in budgets:
        assert generate_sequence(p, 40.0, seed).intervals == _oracle_generate(p, 40.0, seed)
    # a few long traces, where the anchors have many windows to skip over
    for p, seed in budgets[:10]:
        assert generate_sequence(p, 1500.0, seed).intervals == _oracle_generate(p, 1500.0, seed)


def test_worst_case_matches_quadratic_oracle():
    budgets = list(_random_budgets(32, 1000))
    for p, _seed in budgets:
        assert worst_case_sequence(p, 40.0).intervals == _oracle_worst_case(p, 40.0)
    for p, _seed in budgets[:10]:
        assert worst_case_sequence(p, 800.0).intervals == _oracle_worst_case(p, 800.0)
