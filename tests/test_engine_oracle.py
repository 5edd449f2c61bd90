"""The segment engine against the step-by-step event loop it replaced.

`oracle_run` is that loop: every measurement attempt, attack boundary and
record sample is a heap event, and all n states advance by u * dt on every
pop. It keeps the same rules and has no quiescent stretches, so the two
engines agree on every decision and differ in the states only by round-off.
"""

from heapq import heappop, heappush
from pathlib import Path

import conftest
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mgconsensus import engine
from mgconsensus.adaptive import actuation_estimate, delay_aggregate, scaled_input
from mgconsensus.attacks import ChannelSet, DosParams, DosSequence, generate_channel_set, podf_bound
from mgconsensus.controller import (
    attacked_clock_reset,
    clock_reset,
    deadzone_sign,
    dwell_time_floor,
)
from mgconsensus.design import certified_params, global_threshold, lyapunov
from mgconsensus.engine import EngineConfig, Simulation, _entry_time
from mgconsensus.scenario import MODES, load_scenario
from mgconsensus.topology import load_topology

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"
TOL = 1e-12

# event kinds, in tie-break priority order
K_BOUNDARY, K_MEAS, K_EXPIRY, K_ACT, K_DISTURB, K_RECORD = range(6)


def oracle_run(sim: Simulation) -> dict:
    """Run `sim`'s configuration through the step-by-step event loop."""
    cfg = sim.cfg
    n = sim.n
    edges = sim.edges
    ne = len(edges)
    degs = sim.degs

    x = [float(v) for v in cfg.x0]
    ustar = [0.0] * n
    t_now = 0.0

    cache_val = list(x)
    cache_stamp = [0.0] * n
    pending = [None] * n
    pend_edges = [[] for _ in range(n)]
    act_ver = [0] * n

    e_i = [a for a, _ in edges]
    e_j = [b for _, b in edges]
    e_ueff = [0.0] * ne
    e_eps = list(cfg.edge_eps)
    e_rate = list(cfg.edge_rate)
    e_trig_t = [0.0] * ne
    e_diff = [None] * ne
    e_own_delay = [0.0] * ne
    e_nbr_delay = [0.0] * ne
    e_nbr_val = [x[b] for b in e_j]
    e_nbr_stamp = [0.0] * ne
    e_ver = [0] * ne
    phi_act = cfg.phi_act
    adaptive = sim.adaptive

    def set_command(e, i, j, diff, eps_k, rate_k):
        if diff is None:
            u = 0
            theta = attacked_clock_reset(eps_k, degs[i], degs[j])
        else:
            u = deadzone_sign(diff, eps_k)
            theta = clock_reset(diff, eps_k, degs[i], degs[j])
        e_eps[e] = eps_k
        e_rate[e] = rate_k
        e_ueff[e] = scaled_input(u, theta, rate_k, phi_act[i]) if adaptive else float(u)
        e_ver[e] += 1
        return u, theta

    heap = []
    seq = 0

    def push(time_, kind, a=0, b=0):
        nonlocal seq
        heappush(heap, (time_, kind, seq, a, b))
        seq += 1

    horizon = cfg.horizon
    for i in range(n):
        push(0.0, K_MEAS, i)
    for e in range(ne):
        push(cfg.activation_time, K_EXPIRY, e, 0)
    for dt_, node_, jump_ in sorted(cfg.disturbances):
        if dt_ <= horizon:
            push(dt_, K_DISTURB, node_, jump_)
    k = 0
    while k * cfg.record_period <= horizon + 1e-12:
        push(k * cfg.record_period, K_RECORD)
        k += 1
    push(horizon, K_RECORD)
    for ch in (*sim.meas_ch, *sim.act_ch, *sim.comm_ch):
        for window in ch.intervals:
            for b in window:
                if b <= horizon:
                    push(b, K_BOUNDARY)

    times, rows, input_rows = [], [], []
    trigger_log, closed, v_active = [], [], []
    stats = {"meas_ok": 0, "meas_fail": 0, "act_ok": 0, "act_fail": 0,
             "comm_ok": 0, "comm_fail": 0}
    alpha, beta = cfg.alpha, cfg.beta
    eps_floor = cfg.eps_floor
    resilient = sim.resilient
    last_record_t = -1.0

    while heap:
        t, kind, _sq, a, b = heappop(heap)
        if t > horizon + 1e-12:
            break
        dt = t - t_now
        if dt > 0.0:
            for i in range(n):
                if ustar[i] != 0.0:
                    x[i] += ustar[i] * dt
            t_now = t

        if kind == K_MEAS:
            i = a
            if not sim.meas_ch[i].is_attacked(t):
                cache_val[i] = x[i]
                cache_stamp[i] = t
                stats["meas_ok"] += 1
            else:
                stats["meas_fail"] += 1
            nxt = t + cfg.delta_meas
            if nxt <= horizon:
                push(nxt, K_MEAS, i)

        elif kind == K_EXPIRY:
            e, ver = a, b
            if ver != e_ver[e]:
                continue
            i, j = e_i[e], e_j[e]
            comm_h = not sim.comm_ch[e].is_attacked(t)
            stats["comm_ok" if comm_h else "comm_fail"] += 1
            e_trig_t[e] = t
            if comm_h or not resilient:
                if comm_h:
                    e_nbr_val[e] = cache_val[j]
                    e_nbr_stamp[e] = cache_stamp[j]
                diff = e_nbr_val[e] - cache_val[i]
                own_delay = t - cache_stamp[i]
                nbr_delay = t - e_nbr_stamp[e]
                if adaptive and comm_h:
                    gamma = delay_aggregate(own_delay, nbr_delay, 0.0, degs[i], degs[j])
                    eps_k, rate_k = certified_params(gamma, alpha, beta, eps_floor)
                else:
                    eps_k, rate_k = cfg.edge_eps[e], cfg.edge_rate[e]
                e_own_delay[e] = own_delay
                e_nbr_delay[e] = nbr_delay
            else:
                diff = None
                eps_k, rate_k = e_eps[e], e_rate[e]
            e_diff[e] = diff
            u, theta = set_command(e, i, j, diff, eps_k, rate_k)
            if comm_h and u != 0 and abs(diff) >= eps_k:
                v_active.append((t, list(x)))
            push(t + theta / rate_k, K_EXPIRY, e, e_ver[e])
            trigger_log.append(
                (t, e, comm_h, diff, u, theta, eps_k, rate_k,
                 dwell_time_floor(eps_k, rate_k, degs[i], degs[j]))
            )

            new_sum = 0.0
            for oe in sim.out_edges[i]:
                new_sum += e_ueff[oe]
            if pending[i] is not None or new_sum != ustar[i]:
                pending[i] = new_sum
                if e not in pend_edges[i]:
                    pend_edges[i].append(e)
                act_ver[i] += 1
                push(t, K_ACT, i, act_ver[i])

        elif kind == K_ACT:
            i, ver = a, b
            if ver != act_ver[i] or pending[i] is None:
                continue
            if not sim.act_ch[i].is_attacked(t):
                stats["act_ok"] += 1
                ustar[i] = pending[i]
                pending[i] = None
                for e in pend_edges[i]:
                    closed.append(
                        (e, e_trig_t[e], e_own_delay[e], e_nbr_delay[e],
                         t - e_trig_t[e], e_eps[e], e_rate[e])
                    )
                pend_edges[i].clear()
            else:
                stats["act_fail"] += 1
                if adaptive:
                    for e in pend_edges[i]:
                        if e_diff[e] is None:
                            continue
                        t_hat = actuation_estimate(e_trig_t[e], t, cfg.delta_act)
                        gamma = delay_aggregate(e_own_delay[e], e_nbr_delay[e], t_hat,
                                                degs[i], degs[e_j[e]])
                        eps_k, rate_k = certified_params(gamma, alpha, beta, eps_floor)
                        _u, theta = set_command(e, i, e_j[e], e_diff[e], eps_k, rate_k)
                        push(max(e_trig_t[e] + theta / rate_k, t), K_EXPIRY, e, e_ver[e])
                    new_sum = 0.0
                    for oe in sim.out_edges[i]:
                        new_sum += e_ueff[oe]
                    pending[i] = new_sum
                push(t + cfg.delta_act, K_ACT, i, ver)

        elif kind == K_RECORD:
            if t == last_record_t:
                continue
            last_record_t = t
            times.append(t)
            rows.append(list(x))
            input_rows.append(list(ustar))

        elif kind == K_DISTURB:
            x[a] += b

    return dict(times=np.asarray(times), states=np.asarray(rows),
                inputs=np.asarray(input_rows), trigger_log=trigger_log,
                closed=closed, v_active=v_active, stats=stats, final=x)


# ---- comparison ---------------------------------------------------------

def _assert_rows_close(got, want, tol=TOL):
    """Same length and the same row by row: exact in the ints and bools,
    within tol in the floats (None where the oracle has None)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            if isinstance(b, float) or isinstance(a, float):
                assert a is not None and b is not None, (g, w)
                assert abs(a - b) <= tol, (g, w)
            else:
                assert a == b, (g, w)


def assert_matches_oracle(sim: Simulation):
    """Run `sim` both ways and check every output against the oracle's."""
    got, want = sim.run(), oracle_run(sim)
    # decisions: edge, comm health and u exactly; the floats within TOL
    assert [r[1:3] + r[4:5] for r in got.trigger_log] == \
        [r[1:3] + r[4:5] for r in want["trigger_log"]]
    _assert_rows_close(got.trigger_log, want["trigger_log"])
    _assert_rows_close(got.closed_commands, want["closed"])
    assert got.channel_stats == want["stats"]
    assert got.times.shape == want["times"].shape
    assert np.max(np.abs(got.times - want["times"])) <= TOL
    assert np.max(np.abs(got.states - want["states"]), initial=0.0) <= TOL
    # an input may differ only at a sample that meets an actuation up to
    # round-off, where the two orders of sample and actuation can differ
    off = np.flatnonzero(np.max(np.abs(got.inputs - want["inputs"]), axis=1) > TOL)
    acts = np.array([c[1] + c[4] for c in want["closed"]])
    for k in off:
        assert np.min(np.abs(acts - got.times[k])) <= TOL, got.times[k]
    assert np.max(np.abs(got.states[-1] - want["final"])) <= TOL
    # V at the active triggers, read from the segments, is the Lyapunov
    # function of the oracle's x there
    va = conftest.v_at_active_triggers(got)
    assert va.shape == (len(want["v_active"]), 2)
    for (t, v), (tw, xw) in zip(va, want["v_active"]):
        assert abs(t - tw) <= TOL
        assert abs(v - lyapunov(xw)) <= TOL
    return got, want


def heap_push_times(monkeypatch) -> list:
    """The time of every event the engine pushes on its heap from here on; a
    quiescent stretch logs its rows without a push."""
    times = []

    def counting(heap, item):
        times.append(item[0])
        heappush(heap, item)

    monkeypatch.setattr(engine, "heappush", counting)
    return times


@pytest.fixture(scope="module")
def scen():
    return load_scenario(str(SCENARIO))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [0, 3])
def test_bundled_runs_match_oracle(scen, mode, seed):
    s = scen.with_mode(mode).with_seed(seed)
    channels = s.build_channels()
    for name in s.instances:
        got, want = assert_matches_oracle(Simulation(s.engine_config(name, channels)))
        spread = want["states"].max(axis=1) - want["states"].min(axis=1)
        assert got.entry_time == _entry_time(want["times"], spread, got.delta)[0]


@pytest.mark.parametrize("mode", MODES)
def test_early_stop_matches_oracle(scen, mode, monkeypatch):
    # the engine's one early exit from the heap: the bundled frequency
    # instance goes quiescent before its t=30 and t=45 jumps, and the
    # stretches end there and at the horizon; the oracle checks every row
    s = scen.with_mode(mode)
    cfg = s.engine_config("frequency", s.build_channels())
    pushes = heap_push_times(monkeypatch)
    got, _want = assert_matches_oracle(Simulation(cfg))
    assert len(pushes) < len(got.trigger_log) / 4
    assert list(got.trigger_log)[-1][0] > s.horizon - 0.1


PAIR = [[0, 1], [1, 0]]


def _pair_cfg(**kw):
    topo = load_topology(PAIR)
    base = dict(topology=topo, x0=[0.0, 1.0], mode="nominal", eps_floor=0.1,
                edge_eps=[0.1, 0.1], edge_rate=[1.0, 1.0], alpha=1.5, beta=1.1,
                phi_act=[0.0, 0.0], delta_meas=0.25, delta_act=0.01, horizon=3.0,
                record_period=0.05, eps_reference=0.1)
    base.update(kw)
    return EngineConfig(**base)


@pytest.mark.parametrize("activation", [1.0, 1.1])
def test_disturbance_on_grid_point_reads_value_before_jump(activation):
    # node 1 jumps by 5 at t = 1.0, a point of its 0.25 s grid; the edges
    # first trigger at that instant, or later with 1.0 still the latest
    # grid point: either way the cache holds the pre-jump value
    m, _ = assert_matches_oracle(Simulation(_pair_cfg(
        disturbances=[(1.0, 1, 5.0)], activation_time=activation)))
    first = list(m.trigger_log)[0]
    assert first[0] == activation and m.directed_edges[first[1]] == (0, 1)
    assert first[3] == 1.0  # x1(1.0-) - x0(1.0-), not 6.0
    k = int(np.searchsorted(m.times, 1.0))
    assert m.states[k, 1] == 6.0  # the record sample is taken after the jump


def test_actuation_on_grid_point_matches_oracle():
    # node 1 actuates at t = 0.25 and node 0, whose attempt then is jammed,
    # at t = 0.5: both slope changes sit on points of the 0.25 s grid
    cs = ChannelSet({("act", 0): DosSequence(((0.25, 0.5),), 3.0)},
                    {("act", 0): DosParams(1.0, 0.25, 1.0, 1e9, 0.25)})
    m, _ = assert_matches_oracle(Simulation(_pair_cfg(
        channels=cs, activation_time=0.25, delta_act=0.25)))
    assert m.channel_stats["act_fail"] == 1
    assert [c[:2] for c in m.closed_commands[:2]] == [(1, 0.25), (0, 0.5)]


def test_jammed_grid_points_keep_the_last_healthy_reading():
    seq = DosSequence(((0.0, 0.6), (1.0, 1.7)), 3.0)
    p = DosParams(2.0, 1.5, 1.0, 1e9, 0.25)
    cs = ChannelSet({("meas", 0): seq, ("meas", 1): seq}, {("meas", 0): p, ("meas", 1): p})
    m, _ = assert_matches_oracle(Simulation(_pair_cfg(channels=cs, mode="resilient-global")))
    assert m.channel_stats["meas_fail"] > 0


def test_early_stop_waits_for_cancelling_edge_inputs(monkeypatch):
    # on the path 1-0-2 the links into node 0 are jammed, so only node 0's
    # edges act, with -1 and +1 that cancel: every node input stays 0, yet
    # no quiescent stretch starts while an edge input is nonzero
    topo = load_topology([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    jam = DosSequence(((0.0, 5.0),), 5.0)
    p = DosParams(1.0, 5.0, 1.0, 1e9, 0.1)
    cs = ChannelSet({("comm", 1, 0): jam, ("comm", 2, 0): jam},
                    {("comm", 1, 0): p, ("comm", 2, 0): p})
    cfg = EngineConfig(
        topology=topo, x0=[0.15, 0.0, 0.3], mode="resilient-global", eps_floor=0.1,
        edge_eps=[0.1] * 4, edge_rate=[1.0] * 4, alpha=1.5, beta=1.1,
        phi_act=[0.0] * 3, delta_meas=0.01, delta_act=0.01, horizon=5.0, record_period=0.05,
        channels=cs, per_direction_comm=True, eps_reference=0.25,  # delta 0.5 > spread
    )
    pushes = heap_push_times(monkeypatch)
    m, _ = assert_matches_oracle(Simulation(cfg))
    assert len(pushes) >= len(m.trigger_log) and m.times[-1] == 5.0
    assert {row[4] for row in m.trigger_log if m.directed_edges[row[1]][0] == 0} == {-1, 1}


RING4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def test_uniform_ring_ties_keep_heap_order(monkeypatch):
    # every edge has one period, 0.25, and all eight trigger together from
    # t = 0.5 on. The four edges of node 3 acted at t = 0 with theta 0.25
    # (|diff| = 2), the others at t = 0 and 0.25: at each tie the edges of
    # node 3 come first, as the heap pushed them. Dyadic numbers keep both
    # engines exact; the jump at t = 3.1 hands the tied expiries back.
    topo = load_topology(RING4)
    cfg = EngineConfig(
        topology=topo, x0=[0.0, 0.0, 0.0, 2.0], mode="nominal", eps_floor=1.0,
        edge_eps=[1.0] * 8, edge_rate=[0.5] * 8, alpha=1.5, beta=1.1, phi_act=[0.0] * 4,
        delta_meas=0.0625, delta_act=0.0625, horizon=6.0, record_period=0.25,
        eps_reference=1.0, disturbances=[(3.1, 1, 0.5)],
    )
    pushes = heap_push_times(monkeypatch)
    m, _ = assert_matches_oracle(Simulation(cfg))
    assert len(pushes) < len(m.trigger_log) / 2
    node3_first = [1, 5, 6, 7, 0, 2, 3, 4]
    assert [m.directed_edges[e] for e in node3_first[:4]] == [(0, 3), (2, 3), (3, 0), (3, 2)]
    for k in range(2, 24):
        assert [row[1] for row in m.trigger_log if row[0] == k * 0.25] == node3_first, k


def test_stretch_from_stale_neighbour_value_breaks_at_healthy_read(monkeypatch):
    # the pair's link is jammed on [0.5, 4): each nominal edge steers on the
    # other node's t = 0 value, and both go quiet at t = 2.0625 with |diff|
    # 0.9375 < eps against states that have crossed. The stretch from there
    # logs that stale diff until the first healthy read, where the fresh diff
    # -1.125 leaves the dead zone and hands the run back to the heap.
    cs = ChannelSet({("comm", 0, 1): DosSequence(((0.5, 4.0),), 8.0)},
                    {("comm", 0, 1): DosParams(1.0, 3.5, 1.0, 1e9, 0.0625)})
    cfg = _pair_cfg(x0=[0.0, 3.0], eps_floor=1.0, edge_eps=[1.0, 1.0], delta_meas=0.0625,
                    delta_act=0.0625, horizon=8.0, record_period=0.25, eps_reference=1.0,
                    channels=cs)
    pushes = heap_push_times(monkeypatch)
    m, _ = assert_matches_oracle(Simulation(cfg))
    assert not [p for p in pushes if 2.6 < p < 4.0]
    edge01 = [row for row in m.trigger_log if row[1] == 0]
    jammed = [row for row in edge01 if 2.6 < row[0] < 4.0]
    assert jammed and all(not row[2] and row[3] == 0.9375 and row[4] == 0 for row in jammed)
    healed = next(row for row in edge01 if row[2] and row[0] > 4.0)
    assert healed[3] == -1.125 and healed[4] == -1


def test_self_adaptive_stretch_breaks_edge_by_edge_at_one_gamma(monkeypatch):
    # every node's measurement is jammed on [0.125, 3): the ring's eight edges
    # trigger together on the t = 0 stamps, gamma grows, and every diff (1 on
    # four edges, 2 on the link 1-2) sits in the adapted dead zone, so a
    # stretch runs from t = 0.5. At the first trigger after the jam, t1, every
    # edge sees one gamma and eps 1.53: the link 1-2 breaks, the others do not.
    # Edge (0, 3), with diff 1, steps first; a rule cache shared between edges
    # would give (1, 2) and (2, 1) its "in the dead zone" for that gamma.
    jam = DosSequence(((0.125, 3.0),), 8.0)
    p = DosParams(1.0, 3.0, 1.0, 1e9, 0.375)
    cs = ChannelSet({("meas", i): jam for i in range(4)}, {("meas", i): p for i in range(4)})
    cfg = EngineConfig(
        topology=load_topology(RING4), x0=[0.0, 0.0, 2.0, 1.0], mode="self-adaptive",
        eps_floor=0.1, edge_eps=[0.1] * 8, edge_rate=[1.0] * 8, alpha=1.5, beta=1.1,
        phi_act=[0.0] * 4, delta_meas=0.375, delta_act=0.0625, horizon=8.0,
        record_period=0.25, eps_reference=0.1, channels=cs, activation_time=0.5,
    )
    pushes = heap_push_times(monkeypatch)
    m, _ = assert_matches_oracle(Simulation(cfg))
    t1 = next(row[0] for row in m.trigger_log if row[0] > 3.0)
    assert not [p for p in pushes if 0.75 < p < t1]  # the stretch reached t1
    at_t1 = [row for row in m.trigger_log if row[0] == t1]
    eps = {row[6] for row in at_t1}  # one gamma, so one eps
    assert len(eps) == 1 and 1.5 < eps.pop() < 2.0
    u = {m.directed_edges[row[1]]: row[4] for row in at_t1}
    assert u == {(0, 1): 0, (0, 3): 0, (1, 0): 0, (1, 2): 1, (2, 1): -1, (2, 3): 0,
                 (3, 0): 0, (3, 2): 0}


def quiet_prone_config(n: int, seed: int, mode: str, attacked: bool) -> EngineConfig:
    """A connected graph of n nodes, x0, DoS budgets if `attacked` and one
    jump, drawn from `seed`. The offline modes get their certified global
    design; x0 and the jump scale with the eps in use (the floor, in
    self-adaptive mode), as a wider spread under the floor makes so many
    active triggers that the oracle's round-off flips decisions, in the
    segment engine's parent as well."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=int)
    for k in range(1, n):  # a random tree, then a few chords
        p = int(rng.integers(k))
        adj[k, p] = adj[p, k] = 1
    for _ in range(int(rng.integers(n))):
        a, b = rng.choice(n, 2, replace=False)
        adj[a, b] = adj[b, a] = 1
    topo = load_topology(adj.tolist())
    horizon = 6.0
    channels, phi = None, 0.0
    if attacked:
        budget = DosParams(1.0, float(rng.uniform(0.01, 0.05)), 10.0, 25.0, 0.02)
        comm = DosParams(1.0, float(rng.uniform(0.05, 0.5)), 8.0, 10.0, 0.05)
        channels = generate_channel_set(topo, [budget] * n, [budget] * n,
                                        {e: comm for e in topo.edges}, horizon,
                                        int(rng.integers(1 << 31)))
        phi = podf_bound(budget)
    eps, rate = 0.1, 1.0
    if mode != "nominal":
        eps, rate = certified_params(global_threshold(phi, phi, topo.d_max), 2.0, 1.01, 0.1)
    ne = len(topo.directed_edges())
    scale = 0.1 if mode == "self-adaptive" else eps
    return EngineConfig(
        topology=topo, x0=rng.uniform(0.0, 3.0 * scale, n).tolist(), mode=mode, eps_floor=0.1,
        edge_eps=[eps] * ne, edge_rate=[rate] * ne, alpha=1.5, beta=1.1,
        phi_act=[0.0 if mode == "self-adaptive" else phi] * n,
        delta_meas=0.02, delta_act=0.02, channels=channels, horizon=horizon,
        record_period=0.1, eps_reference=eps, activation_time=float(rng.uniform(0.0, 0.5)),
        disturbances=[(float(rng.uniform(1.0, 5.0)), int(rng.integers(n)),
                       float(rng.uniform(-2.0, 2.0) * scale))],
    )


@st.composite
def _quiet_prone_runs(draw):
    """`quiet_prone_config` on 3-8 nodes, in any mode, attacked or not."""
    return quiet_prone_config(draw(st.integers(3, 8)), draw(st.integers(0, 2**32 - 1)),
                              draw(st.sampled_from(MODES)), draw(st.booleans()))


def _check_quiet_prone(cfg):
    m, _ = assert_matches_oracle(Simulation(cfg))
    assert m.min_dwell_margin() >= -1e-12
    if cfg.mode == "nominal" and cfg.channels is not None:
        return  # the nominal design is not certified against DoS
    # V does not increase across active triggers, except across the jump
    t_d = cfg.disturbances[0][0]
    va = conftest.v_at_active_triggers(m)
    for (t1, v1), (t2, v2) in zip(va, va[1:]):
        if not t1 < t_d <= t2:
            assert v2 <= v1 + 1e-12, (t1, t2)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_quiet_prone_runs())
def test_fast_forward_matches_oracle_on_random_graphs(cfg):
    _check_quiet_prone(cfg)


@pytest.mark.parametrize("seed", [2, 4, 34, 91])
def test_self_adaptive_stretches_under_attack_match_oracle(seed):
    # the configs drawn above are seldom self-adaptive and attacked; these
    # are, on graphs of unequal degrees, with quiescent stretches. Seeds 34
    # and 91 re-tune commands after failed actuations: against the floors
    # their trigger rows logged, their dwell margins read -0.0028 and -0.0064 s
    _check_quiet_prone(quiet_prone_config(3 + seed % 6, seed, "self-adaptive", True))
