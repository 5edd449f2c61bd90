import tracemalloc
from heapq import heappush
from pathlib import Path

import conftest
import numpy as np
import pytest

from mgconsensus import engine
from mgconsensus.controller import delay_aggregate
from mgconsensus.attacks import ChannelSet, DosParams, DosSequence
from mgconsensus.design import certified_params
from mgconsensus.engine import (
    CLOSED, K_ACT, ROW, EngineConfig, Simulation, _measurement_grid, _Stamps, _Stretch,
)
from mgconsensus.scenario import MODES, load_scenario, parse_scenario
from mgconsensus.topology import load_topology
from test_engine_oracle import assert_matches_oracle, heap_push_times

PAIR = [[0, 1], [1, 0]]
RING4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"


def _cfg(adj, x0, **kw):
    topo = load_topology(adj)
    ne = len(topo.directed_edges())
    base = dict(
        topology=topo, x0=x0, mode="nominal", eps_floor=0.1,
        edge_eps=[0.1] * ne, edge_rate=[1.0] * ne, alpha=1.5, beta=1.1,
        phi_act=[0.0] * topo.node_count, delta_meas=0.01, delta_act=0.01,
        horizon=20.0, record_period=0.05, delta=0.1 * (topo.node_count - 1),
    )
    base.update(kw)
    return EngineConfig(**base)


def _jam(key, start, end, horizon, delta_star=0.01):
    seq = DosSequence(((start, end),), horizon)
    p = DosParams(1.0, end - start, 1.0, 1e9, delta_star)
    return ChannelSet({key: seq}, {key: p})


def test_two_nodes_converge():
    m = Simulation(_cfg(PAIR, [0.0, 1.0])).run()
    assert m.converged
    assert m.entry_time is not None and m.entry_time < 1.0
    assert m.spread_series[-1] < 0.1
    assert m.dwell_margin >= -1e-12


def test_ternary_inputs_only():
    m = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0])).run()
    for _t, _e, _h, _d, u, *_ in m.trigger_log:
        assert u in (-1, 0, 1)
    # node inputs are sums of at most d_i unit edge inputs
    assert np.all(np.abs(m.inputs) <= 2.0 + 1e-12)


def test_spread_never_grows_without_disturbance():
    m = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0])).run()
    diffs = np.diff(m.spread_series)
    assert diffs.max() <= 1e-9


def test_identical_runs_are_identical():
    a = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0])).run()
    b = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0])).run()
    assert list(a.trigger_log) == list(b.trigger_log)
    np.testing.assert_array_equal(a.states, b.states)


def test_inactive_until_activation():
    m = Simulation(_cfg(PAIR, [0.0, 1.0], activation_time=5.0)).run()
    pre = m.states[m.times < 5.0]
    np.testing.assert_array_equal(pre, np.broadcast_to([0.0, 1.0], pre.shape))
    assert m.converged


def test_disturbance_jump_and_reentry():
    m = Simulation(
        _cfg(PAIR, [0.0, 1.0], disturbances=[(10.0, 0, 2.0)], horizon=25.0)
    ).run()
    assert m.converged
    assert m.entry_time > 10.0
    # spread right after the jump reflects the full 2.0 kick
    k = np.searchsorted(m.times, 10.0)
    assert m.spread_series[k] > 1.5


def test_no_controller_no_motion():
    m = Simulation(
        _cfg(PAIR, [0.0, 1.0], activation_time=30.0, disturbances=[(5.0, 1, 1.0)])
    ).run()
    np.testing.assert_allclose(m.states[-1], [0.0, 2.0])
    assert not m.converged


def test_jammed_edge_zeroes_input_resilient():
    topo_kw = dict(mode="resilient-global", horizon=5.0)
    cs = _jam(("comm", 0, 1), 0.0, 5.0, 5.0)
    m = Simulation(_cfg(PAIR, [0.0, 1.0], channels=cs, **topo_kw)).run()
    edge_pairs = m.directed_edges
    for t, e, h, d, u, theta, eps, rate, _f in m.trigger_log:
        if t >= 5.0:
            continue  # the window is half-open; t = 5.0 is healthy again
        assert edge_pairs[e] in ((0, 1), (1, 0))
        assert not h and u == 0 and d is None
        assert theta == pytest.approx(eps / 4.0)
    # with both directions jammed the pair never moves
    np.testing.assert_allclose(m.states[-1], [0.0, 1.0])


def test_jammed_edge_nominal_uses_stale_data():
    cs = _jam(("comm", 0, 1), 0.0, 5.0, 5.0)
    m = Simulation(_cfg(PAIR, [0.0, 1.0], channels=cs, mode="nominal", horizon=5.0)).run()
    # nominal controllers keep acting on the stale initial snapshot
    assert any(entry[4] != 0 for entry in m.trigger_log)
    assert m.states[-1][0] > 0.5  # node 0 chased the frozen x1(0) = 1


def test_actuation_jam_delays_commands():
    cs = _jam(("act", 0), 0.0, 0.5, 5.0)
    m = Simulation(_cfg(PAIR, [0.0, 1.0], channels=cs, horizon=5.0)).run()
    assert m.channel_stats["act_fail"] > 10
    assert m.channel_stats["act_ok"] > 0
    # node 0's plant never moves while its actuation channel is jammed
    np.testing.assert_array_equal(m.states[m.times < 0.5, 0], 0.0)
    assert m.states[-1][0] > 0.1
    assert m.converged


@pytest.mark.parametrize("mode", ["nominal", "self-adaptive"])
def test_actuation_attempts_due_now_skip_the_heap(mode, monkeypatch):
    # an attempt due at its push waits in a FIFO; only a retry, delta_act after
    # a jammed attempt, is pushed on the heap. The order of events is the
    # heap's, as the oracle checks.
    pushed = []

    def recording(heap, item):
        pushed.append(item)
        heappush(heap, item)

    monkeypatch.setattr(engine, "heappush", recording)
    cs = _jam(("act", 0), 0.0, 0.5, 5.0)
    m, _ = assert_matches_oracle(Simulation(_cfg(
        RING4, [0.0, 2.0, 4.0, 1.0], channels=cs, mode=mode, horizon=5.0, eps_floor=0.125,
        edge_eps=[0.125] * 8, delta_meas=0.015625, delta_act=0.015625)))
    assert m.channel_stats["act_ok"] > 0 and m.channel_stats["act_fail"] > 10
    assert sum(item[1] == K_ACT for item in pushed) == m.channel_stats["act_fail"]


def test_retune_uses_delay_aggregate():
    # failed actuations re-tune the pending command from the grown estimate,
    # which the successful attempt then confirms as the actuation delay
    cs = _jam(("act", 0), 0.0, 0.5, 5.0)
    m = Simulation(
        _cfg(PAIR, [0.0, 1.0], channels=cs, mode="self-adaptive", horizon=5.0)
    ).run()
    c = conftest.closed_commands(m)
    for own, nbr, act, eps, rate in zip(*(c[k].tolist() for k in ("own", "nbr", "act", "eps",
                                                                   "rate"))):
        gamma = delay_aggregate(own, nbr, act, 1, 1)
        assert (eps, rate) == certified_params(gamma, 1.5, 1.1, 0.1)
    assert (c["act"] > 0.0).any()


def test_measurement_jam_freezes_cache():
    cs = _jam(("meas", 1), 0.0, 5.0, 5.0)
    m = Simulation(_cfg(PAIR, [0.0, 1.0], channels=cs, horizon=5.0)).run()
    assert m.channel_stats["meas_fail"] > 100
    # node 0 still converges towards the frozen snapshot of node 1
    assert m.states[-1][0] > 0.5


def test_early_freeze_matches_full_run(monkeypatch):
    # the ring settles early, and the rest of the 20 s is one quiescent
    # stretch: it matches the step-by-step loop over the full horizon. Dyadic
    # eps and grids keep both engines exact, so no tie flips on round-off.
    pushes = heap_push_times(monkeypatch)
    m, _ = assert_matches_oracle(Simulation(_cfg(
        RING4, [0.0, 2.0, 4.0, 1.0], eps_floor=0.125, edge_eps=[0.125] * 8,
        delta_meas=0.015625, delta_act=0.015625)))
    assert m.converged and m.spread_series[-1] < m.delta
    assert len(pushes) < len(m.trigger_log) / 4
    assert m.times[-1] == 20.0 and list(m.trigger_log)[-1][0] > 19.9


def test_adaptive_mode_converges_attack_free():
    m = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0], mode="self-adaptive")).run()
    assert m.converged
    assert m.dwell_margin >= -1e-12


def test_negative_actuation_bound_rejected():
    with pytest.raises(ValueError, match="phi_act"):
        Simulation(_cfg(PAIR, [0.0, 1.0], mode="self-adaptive", phi_act=[0.0, -0.1]))


@pytest.mark.parametrize("value", [0.0, -0.01, float("inf"), float("nan")])
@pytest.mark.parametrize("name", ["delta_meas", "delta_act", "record_period"])
def test_non_positive_or_non_finite_intervals_are_rejected(name, value):
    # a zero actuation interval retries a jammed attempt at t + 0 forever; a zero
    # measurement or record step divides by zero
    jam = _jam(("act", 0), 0.0, 3.0, 20.0)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        Simulation(_cfg(PAIR, [0.0, 10.0], channels=jam, **{name: value}))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name,value", [
    *(pytest.param(k, [v] * 2, id=f"{k}={v}") for k in ("edge_eps", "edge_rate")
      for v in (0.0, -0.1, NAN, INF)),
    pytest.param("phi_act", [NAN, 0.0], id="phi_act=nan"),
    pytest.param("activation_time", NAN, id="activation_time=nan"),
    *(pytest.param("delta", v, id=f"delta={v}") for v in (0.0, -0.1, NAN, INF)),
])
def test_inputs_that_would_hang_or_misreport_are_rejected(name, value):
    # eps <= 0 or NaN, R = inf, a NaN activation time and (self-adaptive) a NaN
    # phi_act each left the run without an end; R = 0 and eps = inf raised
    # unrelated errors, and a NaN delta reported entry at t = 0. Only the
    # constructor runs here, so no case can hang.
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        Simulation(_cfg(PAIR, [0.0, 1.0], **{name: value}))


def test_record_grid_and_horizon_sample():
    m = Simulation(_cfg(PAIR, [0.0, 1.0], horizon=1.0, record_period=0.25)).run()
    np.testing.assert_allclose(m.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_lyapunov_series_matches_states():
    m = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0])).run()
    mean = m.states.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(
        m.v_series, 0.5 * ((m.states - mean) ** 2).sum(axis=1)
    )


@pytest.mark.parametrize("mode", ["nominal", "resilient-global", "resilient-local",
                                  "self-adaptive"])
def test_early_freeze_waits_for_disturbances(mode, monkeypatch):
    # the bundled frequency instance is quiescent before its t=30 and t=45
    # jumps: each stretch ends at the jump, which lands on a constant state,
    # and the run goes on to the horizon
    scen = load_scenario(str(SCENARIO)).with_mode(mode)
    for seed in (0, 1, 2):
        cfg = scen.engine_config("frequency", scen.with_seed(seed).build_channels())
        pushes = heap_push_times(monkeypatch)
        m = Simulation(cfg).run()
        assert len(pushes) < len(m.trigger_log) / 4, seed
        for t_d, node, jump in cfg.disturbances:
            k = int(np.searchsorted(m.times, t_d))
            assert not m.inputs[k - 1].any()
            assert m.states[k, node] - m.states[k - 1, node] == pytest.approx(jump)
        assert m.times[-1] == scen.horizon and list(m.trigger_log)[-1][0] > scen.horizon - 0.1
        if mode in ("nominal", "self-adaptive"):  # back in the target set after the last jump
            assert m.entry_time > 45.0, seed


@pytest.mark.parametrize("delta", [0.007, 0.01, 0.0125, 0.05, 0.1])
@pytest.mark.parametrize("horizon", [7.3, 60.0, 8_000.0])
def test_measurement_grid_is_the_repeated_sum(delta, horizon):
    # the engine's cumsum grid must be the floats a t += delta loop visits
    want = [0.0]
    while want[-1] + delta <= horizon:
        want.append(want[-1] + delta)
    assert _measurement_grid(delta, horizon).tolist() == want


def test_reading_the_ring64_log_copies_no_heap_row():
    # the 12 s ring-64 log holds some 20k heap rows; each of the log's blocks
    # views its stored records, times and tails, so reading every block
    # costs far less than a copy of the records (some 1.1 MB)
    s = parse_scenario(conftest.ring64_data())
    log = Simulation(s.engine_config("frequency", s.build_channels())).run().trigger_log
    read = 0
    tracemalloc.start()
    try:
        for times, _tails, _codes in log.blocks():
            read += times.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == len(log) > 15000
    assert peak < 0.5e6, peak


def test_the_ring64_run_keeps_packed_records_only():
    # the 12 s ring-64 run's heap rows and closed commands are held at their
    # packed sizes, 54 and 52 B each, with no growth slack (the run seals each
    # last block); a few kB go to object headers. As tuples they held some 200 B each.
    s = parse_scenario(conftest.ring64_data())
    cfg = s.engine_config("frequency", s.build_channels())
    tracemalloc.start()
    try:
        m = Simulation(cfg).run()
        heap = [p for p in m.trigger_log.parts if not isinstance(p, _Stretch)]
        rows, commands = sum(map(len, heap)), len(m.closed_commands)
        before = tracemalloc.get_traced_memory()[0]
        m.trigger_log.parts = [p for p in m.trigger_log.parts if isinstance(p, _Stretch)]
        del heap
        after_rows = tracemalloc.get_traced_memory()[0]
        m.closed_commands = None
        after_commands = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 15000 and commands > 10000
    assert before - after_rows <= ROW.itemsize * rows + 4096, (before - after_rows) / rows
    assert after_rows - after_commands <= CLOSED.itemsize * commands + 4096, \
        (after_rows - after_commands) / commands


@pytest.mark.parametrize("mode", MODES)
def test_ring64_dwell_margin_matches_the_reference(mode):
    # every ring-64 row is a heap row; the self-adaptive run re-tunes some
    # commands, whose floors the margin's later gaps read
    s = parse_scenario(conftest.ring64_data()).with_mode(mode)
    m = Simulation(s.engine_config("frequency", s.build_channels())).run()
    assert m.dwell_margin == conftest.min_dwell_margin_reference(m)


def test_a_run_keeps_every_closed_command_block_as_bytes():
    # the 12 s ring-64 run closes some 12k commands: every block, the last
    # one too, is sealed as bytes of whole records, read as read-only views
    s = parse_scenario(conftest.ring64_data())
    m = Simulation(s.engine_config("frequency", s.build_channels())).run()
    blocks = [b for b in m.closed_commands.blocks if b]
    assert len(blocks) > 2 and all(type(b) is bytes for b in blocks)
    views = list(m.closed_commands.records())
    assert [v.size for v in views[:-1]] == [engine.BLOCK] * (len(views) - 1)
    assert sum(v.size for v in views) == len(m.closed_commands)
    assert not any(v.flags.writeable for v in views)


@pytest.mark.parametrize("x0,jumps", [([0.0, float("nan")], []), ([float("inf"), 1.0], []),
                                      ([0.0, 1.0], [(1.0, 0, float("nan"))]),
                                      ([0.0, 1.0], [(1.0, 1, -float("inf"))])])
def test_non_finite_states_are_rejected(x0, jumps):
    # a log row's NaN diff stands for None (a jammed link), so no state may be NaN
    with pytest.raises(ValueError, match="finite"):
        Simulation(_cfg(PAIR, x0, disturbances=jumps))


def _x_before(m, nodes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x_node(s) per row, read from the run's segments just before any jump at s."""
    x = np.empty(s.size)
    for i, (seg_t, seg_x, seg_u) in enumerate(m.segments):
        at = nodes == i
        k = np.maximum(np.searchsorted(seg_t, s[at], "left") - 1, 0)
        x[at] = seg_x[k] + seg_u[k] * (s[at] - seg_t[k])
    return x


def assert_reads_match_segments(sim: Simulation, m) -> tuple[int, int]:
    """Every comm-healthy heap row's diff is x_j(s_j) - x_i(s_i) float for
    float, each stamp s the node's latest healthy grid point <= t (`_Stamps`).
    Returns the rows checked and how many of them lie on a grid point."""
    cfg = sim.cfg
    stamps = _Stamps(cfg.delta_meas, cfg.horizon, sim.meas_ch)
    edges = np.array(m.directed_edges)
    rows = on_grid = 0
    for part in m.trigger_log.parts:
        if isinstance(part, _Stretch):
            continue
        for block in part.records():
            block = block[block["healthy"]]
            i, j = edges[block["edge"]].T
            s_i, s_j = ([stamps(a, t) for a, t in zip(nodes.tolist(), block["t"].tolist())]
                        for nodes in (i, j))
            want = _x_before(m, j, np.array(s_j)) - _x_before(m, i, np.array(s_i))
            np.testing.assert_array_equal(block["diff"], want)
            rows += block.size
            on_grid += int(np.isin(block["t"], stamps.grid_np).sum())
    return rows, on_grid


@pytest.mark.parametrize("mode", MODES)
def test_heap_reads_match_the_segments_on_bundled_runs(mode):
    scen = load_scenario(str(SCENARIO)).with_mode(mode)
    for seed in range(4):
        s = scen.with_seed(seed)
        channels = s.build_channels()
        for instance in ("frequency", "power"):
            sim = Simulation(s.engine_config(instance, channels))
            assert assert_reads_match_segments(sim, sim.run())[0] > 0, (seed, instance)


@pytest.mark.parametrize("mode", ["nominal", "self-adaptive"])
def test_heap_reads_match_the_segments_on_ring64(mode):
    s = parse_scenario(conftest.ring64_data()).with_mode(mode)
    sim = Simulation(s.engine_config("frequency", s.build_channels()))
    assert assert_reads_match_segments(sim, sim.run())[0] > 15000


def test_heap_reads_match_the_segments_at_triggers_on_grid_points():
    # dyadic x0, eps and grid keep every trigger time dyadic: many land exactly
    # on a grid point, where the read must already see that point's measurement
    sim = Simulation(_cfg(RING4, [0.0, 2.0, 4.0, 1.0], eps_floor=0.125, edge_eps=[0.125] * 8,
                          delta_meas=0.015625, delta_act=0.015625))
    rows, on_grid = assert_reads_match_segments(sim, sim.run())
    assert on_grid > 100, (rows, on_grid)


@pytest.mark.parametrize("mode", ["nominal", "self-adaptive"])
def test_a_ring64_run_bisects_the_grid_at_most_once_per_grid_point(mode, monkeypatch):
    # trigger times never fall, so the grid cursor only moves forward; a
    # bisect per node read in a new grid step made 32,896 (nominal) and 17,149
    # (self-adaptive) calls on this run's 1,201 grid points
    s = parse_scenario(conftest.ring64_data()).with_mode(mode)
    cfg = s.engine_config("frequency", s.build_channels())
    sim, calls, bisect = Simulation(cfg), [], engine.bisect_right
    monkeypatch.setattr(engine, "bisect_right", lambda *a: calls.append(1) or bisect(*a))
    m = sim.run()
    assert len(m.trigger_log) > 15000
    assert 0 < len(calls) <= _measurement_grid(cfg.delta_meas, cfg.horizon).size
