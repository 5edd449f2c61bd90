from pathlib import Path

import numpy as np
import pytest

from mgconsensus import engine
from mgconsensus.attacks import ChannelSet, DosParams, DosSequence
from mgconsensus.controller import trigger
from mgconsensus.engine import TAIL, EngineConfig, Simulation, _Rows, _Stretch
from mgconsensus.scenario import load_scenario
from mgconsensus.topology import load_topology

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"
MODES = ("nominal", "resilient-global", "resilient-local", "self-adaptive")
RING4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def _rule(diff, eps, rate, d_i, d_j):
    """The ternary rule written out: u = sgn(diff) outside the closed dead zone
    |diff| < eps (0 on a jammed link, diff None), theta = max(|diff|, eps) /
    (2 (d_i + d_j)) and the dwell floor eps / (2 R (d_i + d_j))."""
    mag = eps if diff is None else max(abs(diff), eps)
    u = 0 if diff is None or abs(diff) < eps else (1 if diff > 0.0 else -1)
    return u, mag / (2.0 * (d_i + d_j)), eps / (2.0 * rate * (d_i + d_j))


@pytest.mark.parametrize(
    "z,eps,expected",
    [
        (0.5, 0.1, 1),
        (-0.5, 0.1, -1),
        (0.1, 0.1, 1),      # closed dead-zone boundary fires
        (-0.1, 0.1, -1),
        (0.0999, 0.1, 0),
        (-0.0999, 0.1, 0),
        (0.0, 0.1, 0),
        (None, 0.1, 0),     # a jammed link reads nothing
    ],
)
def test_deadzone_sign(z, eps, expected):
    u, theta, floor = trigger(z, eps, 1.0, 1, 1)
    assert u == expected
    assert type(u) is int
    assert (u, theta, floor) == _rule(z, eps, 1.0, 1, 1)


def test_clock_reset_floors_at_eps():
    assert trigger(0.05, 0.1, 1.0, 1, 1)[1] == pytest.approx(0.1 / 4.0)
    assert trigger(0.8, 0.1, 1.0, 1, 1)[1] == pytest.approx(0.2)
    assert trigger(-0.8, 0.1, 1.0, 1, 1)[1] == pytest.approx(0.2)
    # theta does not depend on the rate
    assert trigger(-0.8, 0.1, 3.0, 1, 1)[1] == trigger(-0.8, 0.1, 1.0, 1, 1)[1]


def test_attacked_reset_is_the_floor():
    assert trigger(None, 0.1, 1.0, 2, 2) == (0, pytest.approx(0.1 / 8.0), pytest.approx(0.1 / 8.0))
    # a jammed link's clock is that of a read inside the dead zone
    assert trigger(None, 0.1, 1.0, 2, 2) == trigger(0.0, 0.1, 1.0, 2, 2)
    assert trigger(None, 0.1, 1.0, 2, 2) == trigger(-0.05, 0.1, 1.0, 2, 2)


def test_dwell_floor_value():
    # design values from the heavier resilient example; the floor is the
    # same for every diff
    for diff in (None, 0.0, 5.0, -5.0):
        assert trigger(diff, 1.2624, 1.01, 2, 2)[2] == pytest.approx(0.15623762376237624)


@pytest.fixture(scope="module", params=range(4), ids="seed{}".format)
def bundled_logs(request):
    """The trigger logs of both bundled instances in every mode, at seeds 0-3."""
    scen = load_scenario(str(SCENARIO)).with_seed(request.param)
    logs = {}
    for mode in MODES:
        s = scen.with_mode(mode)
        channels = s.build_channels()
        for name in s.instances:
            logs[mode, name] = (s.topology.degrees,
                                Simulation(s.engine_config(name, channels)).run())
    return logs


def test_every_bundled_row_follows_the_rule(bundled_logs):
    kinds = set()
    for (mode, _name), (degs, m) in bundled_logs.items():
        for part in m.trigger_log.parts:
            kinds.add((mode, type(part)))
            blocks = list(part.table())
            # a stretch's blocks share its distinct tails, and use every one
            if isinstance(part, _Stretch):
                tails = blocks[0][1]
                assert all(b[1] is tails for b in blocks)
                used = np.unique(np.concatenate([codes for _times, _tails, codes in blocks]))
                assert used.tolist() == list(range(tails.size))
            for _times, tails, _codes in blocks:
                for e, _h, diff, u, theta, eps, rate, floor in zip(
                        *(tails[k].tolist() for k in TAIL.names)):
                    i, j = m.directed_edges[e]
                    diff = None if np.isnan(diff) else diff
                    assert (u, theta, floor) == _rule(diff, eps, rate, degs[i], degs[j])
                    assert type(u) is int
    # heap and stretch rows in every mode
    assert kinds == {(mode, kind) for mode in MODES for kind in (_Rows, _Stretch)}


def test_reading_a_log_applies_no_rule(bundled_logs, monkeypatch):
    # a stretch row lies in the dead zone, so its u is 0 and its theta and
    # floor are its command's, resolved where the command first appears: no
    # read of a log applies the rule
    calls = []

    def counted(*args):
        calls.append(args)
        return trigger(*args)
    monkeypatch.setattr(engine, "trigger", counted)
    for (mode, _name), (_degs, m) in bundled_logs.items():
        if mode in ("nominal", "self-adaptive"):
            assert any(isinstance(part, _Stretch) for part in m.trigger_log.parts)
            for _block in m.trigger_log.blocks():
                pass
    assert calls == []


# The tests below check the rule as the engine applies it, row by row of
# its trigger log: (t, edge, comm_healthy, diff, u, theta, eps, rate, floor).
# Every node of the ring has degree D.
D = 2


def _run(mode, rate=1.0, comm_jam=True, horizon=10.0):
    """Ring of four; the 0-1 link is jammed on [1, 3) when comm_jam is set."""
    topo = load_topology(RING4)
    ne = len(topo.directed_edges())
    channels = None
    if comm_jam:
        key = ("comm", 0, 1)
        channels = ChannelSet({key: DosSequence(((1.0, 3.0),), horizon)},
                              {key: DosParams(1.0, 2.0, 1.0, 1e9, 0.01)})
    cfg = EngineConfig(
        topology=topo, x0=[0.0, 2.0, 4.0, 1.0], mode=mode, eps_floor=0.1,
        edge_eps=[0.1] * ne, edge_rate=[rate] * ne, alpha=1.5, beta=1.1,
        phi_act=[0.05] * 4, delta_meas=0.01, delta_act=0.01, horizon=horizon,
        record_period=0.05, delta=0.1 * (topo.node_count - 1), channels=channels,
    )
    return Simulation(cfg).run()


def test_expiry_healthy_branch():
    for mode in MODES:
        rows = [r for r in _run(mode).trigger_log if r[3] is not None]
        assert rows
        for _t, _e, _h, diff, u, theta, eps, rate, floor in rows:
            assert (u, theta, floor) == trigger(diff, eps, rate, D, D)


def test_expiry_jammed_branch():
    for mode in MODES:
        jammed = [r for r in _run(mode).trigger_log if r[3] is None]
        # only resilient controllers discard the stale data of a jammed link
        assert bool(jammed) == (mode != "nominal")
        for _t, _e, healthy, _d, u, theta, eps, rate, floor in jammed:
            assert not healthy
            assert u == 0
            assert (u, theta, floor) == trigger(None, eps, rate, D, D)


def test_expiry_inside_dead_zone_keeps_zero_input():
    for mode in MODES:
        inside = [r for r in _run(mode).trigger_log if r[3] is not None and abs(r[3]) < r[6]]
        assert inside
        for _t, _e, _h, _d, u, theta, eps, _r, _f in inside:
            assert u == 0
            assert theta == eps / (2.0 * (D + D))


def test_early_trigger_rejected():
    # each edge fires exactly when the clock set at its previous trigger runs out
    for mode in MODES:
        due = {}
        for t, e, _h, _d, _u, theta, _eps, rate, _f in _run(mode).trigger_log:
            if e in due:
                assert t == due[e]
            due[e] = t + theta / rate


def test_rate_shortens_wall_clock_interval():
    last = {}
    for t, e, _h, _d, _u, theta, _eps, rate, _f in _run("nominal", 2.0, False).trigger_log:
        assert rate == 2.0
        if e in last:
            prev_t, prev_theta = last[e]
            assert t - prev_t == pytest.approx(prev_theta / 2.0)
        last[e] = (t, theta)


def test_node_input_sums_edges():
    # unattacked actuation applies each command at its trigger time, so every
    # recorded node input is the sum of the node's latest edge inputs
    m = _run("nominal")
    edge_u = [0] * len(m.directed_edges)
    k = 0

    def check(k):
        for i in range(4):
            total = sum(u for (a, _b), u in zip(m.directed_edges, edge_u) if a == i)
            assert m.inputs[k][i] == total

    for t, e, _h, _d, u, *_rest in m.trigger_log:
        while k < m.times.size and m.times[k] < t:
            check(k)
            k += 1
        edge_u[e] = u
    while k < m.times.size:
        check(k)
        k += 1
    assert np.any(m.inputs != 0.0)
