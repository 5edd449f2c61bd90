"""Deterministic event-driven closed-loop simulation.

Each node's state is piecewise linear in time: a new segment (start, value,
slope) begins only when that node's actuation succeeds or a disturbance hits
it, so states integrate exactly and their round-off does not depend on the
other events. One engine simulates one scalar-consensus instance (frequency
or droop-scaled power); both instances of a scenario are two runs sharing
topology and attack traces.

The event heap holds clock expiries, actuation attempts and disturbances; at
equal times they resolve in that order, FIFO within a kind. Measurements and
record samples are not events:

- node i measures itself on its grid 0, delta*_meas, 2 delta*_meas, ...; a
  trigger at t reads i's cache lazily as x_i at the latest healthy grid point
  <= t, taken just before any disturbance at that instant (a measurement
  precedes an expiry at equal times, a disturbance follows both);
- record samples are read from the segments after the run, just after any
  jump at their time (they follow every event). `RunMetrics.segments` keeps
  the segments for reads at other times: `_evaluate(..., after_jumps=False)`
  gives the states a trigger saw (a trigger precedes a disturbance).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Optional, Sequence

import numpy as np

from .adaptive import actuation_estimate, delay_aggregate, scaled_input
from .attacks import ChannelSet, DosSequence
from .controller import attacked_clock_reset, clock_reset, deadzone_sign, dwell_time_floor
from .design import certified_params
from .topology import Topology

# event kinds, in tie-break priority order
K_EXPIRY = 0
K_ACT = 1
K_DISTURB = 2


@dataclass
class EngineConfig:
    """Everything one instance run needs, fully resolved."""

    topology: Topology
    x0: Sequence[float]
    mode: str                                   # nominal | resilient-global | resilient-local | self-adaptive
    eps_floor: float
    edge_eps: Sequence[float]                   # per directed edge, design values
    edge_rate: Sequence[float]
    alpha: float
    beta: float
    phi_act: Sequence[float]                    # per node, offline actuation bound
    delta_meas: float                           # every node's attempt interval
    delta_act: float
    horizon: float
    record_period: float
    eps_reference: float                        # delta = eps_reference * (n - 1)
    channels: ChannelSet | None = None
    per_direction_comm: bool = False
    activation_time: float = 0.0
    disturbances: Sequence[tuple[float, int, float]] = ()
    stop_when_frozen: bool = False


@dataclass
class RunMetrics:
    times: np.ndarray
    states: np.ndarray          # samples x nodes
    inputs: np.ndarray          # actuated node inputs, samples x nodes
    v_series: np.ndarray
    spread_series: np.ndarray
    delta: float
    entry_time: Optional[float]
    converged: bool
    trigger_log: list           # (t, edge, comm_healthy, diff, u, theta, eps, rate, dwell_floor)
    closed_commands: list       # (edge, trigger_t, own_delay, nbr_delay, act_delay, eps, rate)
    channel_stats: dict
    directed_edges: list
    segments: list              # per node, arrays (t, x, u) of segment starts, as in run()

    def min_dwell_margin(self) -> float:
        """Smallest (observed gap - guaranteed floor) over all edges."""
        last: dict[int, tuple[float, float]] = {}
        margin = np.inf
        for t, e, _h, _d, _u, _th, _eps, _rate, floor_ in self.trigger_log:
            if e in last:
                prev_t, prev_floor = last[e]
                margin = min(margin, (t - prev_t) - prev_floor)
            last[e] = (t, floor_)
        return float(margin)


def _entry_time(times: np.ndarray, spread: np.ndarray,
                delta: float) -> tuple[Optional[float], bool]:
    """First sample time after which the spread never leaves the target set."""
    if times.size == 0:
        return None, False
    above = np.flatnonzero(spread >= delta)
    if above.size == 0:
        return float(times[0]), True
    if above[-1] == times.size - 1:
        return None, False
    return float(times[above[-1] + 1]), True


def _measurement_grid(delta: float, horizon: float) -> np.ndarray:
    """0, delta, 2 delta, ... up to the horizon, each point the previous one
    plus delta: np.cumsum adds in order, so these are the floats of a loop
    that repeats t += delta."""
    steps = np.full(int(horizon / delta) + 3, delta)
    steps[0] = 0.0
    grid = np.cumsum(steps)
    return grid[: np.searchsorted(grid, horizon, side="right")]


def _record_times(period: float, horizon: float) -> np.ndarray:
    """The sample grid k * period up to the horizon (1e-12 slack), plus the horizon."""
    count = int((horizon + 1e-12) / period) + 3
    grid = np.arange(count) * period
    times = np.sort(np.append(grid[grid <= horizon + 1e-12], horizon))
    return times[np.diff(times, prepend=-1.0) != 0.0]  # np.unique would import numpy.ma


def _evaluate(seg_t: np.ndarray, seg_x: np.ndarray, seg_u: np.ndarray,
              times: np.ndarray, after_jumps: bool) -> tuple[np.ndarray, np.ndarray]:
    """One node's state and slope at the sorted `times` >= 0. At the start of a
    segment, after_jumps reads that segment, else the one before it."""
    # each segment covers a run of consecutive times: repeat it over its run
    first = np.searchsorted(times, seg_t, side="left" if after_jumps else "right")
    first[0] = 0
    counts = np.diff(first, append=times.size)
    slope = np.repeat(seg_u, counts)
    x = times - np.repeat(seg_t, counts)
    x *= slope
    x += np.repeat(seg_x, counts)
    return x, slope


class Simulation:
    """Single-threaded deterministic engine for one scenario instance."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        topo = cfg.topology
        self.n = topo.node_count
        self.degs = topo.degrees
        self.edges = topo.directed_edges()
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        self.out_edges = [
            [self.edge_index[(i, j)] for j in topo.neighbors[i]] for i in range(self.n)
        ]
        if len(cfg.edge_eps) != len(self.edges) or len(cfg.edge_rate) != len(self.edges):
            raise ValueError("edge_eps/edge_rate must match the directed edge count")
        if cfg.activation_time < 0.0:  # every delay t - stamp is then >= 0
            raise ValueError("activation_time must be >= 0")

        # a channel without a trace is an unattacked one
        sequences = cfg.channels.sequences if cfg.channels else {}
        unattacked = DosSequence((), cfg.horizon)
        self.meas_ch = [sequences.get(("meas", i), unattacked) for i in range(self.n)]
        self.act_ch = [sequences.get(("act", i), unattacked) for i in range(self.n)]
        self.comm_ch = [
            sequences.get(("comm", i, j) if (cfg.per_direction_comm or i < j) else ("comm", j, i),
                          unattacked)
            for i, j in self.edges
        ]

        self.resilient = cfg.mode != "nominal"
        self.adaptive = cfg.mode == "self-adaptive"
        self.delta = cfg.eps_reference * (self.n - 1)

    def run(self) -> RunMetrics:
        cfg = self.cfg
        n = self.n
        edges = self.edges
        ne = len(edges)
        degs = self.degs
        horizon = cfg.horizon

        # plant: node i's segments, x_i(t) = seg_x[m] + seg_u[m] (t - seg_t[m])
        # on the last segment m starting at or before t; flat float arrays
        # hold them in 24 bytes per segment
        seg_t = [array("d", [0.0]) for _ in range(n)]
        seg_x = [array("d", [v]) for v in cfg.x0]
        seg_u = [array("d", [0.0]) for _ in range(n)]

        # max - min over the states, kept while no segment starts; the early
        # stop reads it only when every input is 0, so the states are constant
        spread = None

        def new_segment(i, t, slope, jump=0.0):
            nonlocal spread
            spread = None
            ts, xs, us = seg_t[i], seg_x[i], seg_u[i]
            xs.append(xs[-1] + us[-1] * (t - ts[-1]) + jump)
            ts.append(t)
            us.append(slope)

        # the measurement grid; a node's jammed grid point maps to its latest
        # healthy one before it, or to 0, which reads x0 as the initial cache does
        grid_np = _measurement_grid(cfg.delta_meas, horizon)
        grid = grid_np.tolist()
        meas_jam, meas_bad = [], []
        for i in range(n):
            attacked = self.meas_ch[i].attacked(grid_np)
            bad = np.flatnonzero(attacked)
            before = np.maximum.accumulate(np.where(attacked, 0, np.arange(grid_np.size))) \
                if bad.size else bad
            meas_jam.append(dict(zip(bad.tolist(), before[bad].tolist())))
            meas_bad.append(bad)

        # the last read of each node holds until its next grid point: a new
        # segment starts at or after the read, so the value at its stamp is final
        meas_last: list = [None] * n
        meas_until = [-1.0] * n

        def measured(i, t):
            """(stamp, value) of node i's cache at a trigger at t."""
            if t < meas_until[i]:
                return meas_last[i]
            k = bisect_right(grid, t) - 1
            s = grid[meas_jam[i].get(k, k)]
            ts = seg_t[i]
            m = len(ts) - 1
            while m and ts[m] >= s:
                m -= 1
            meas_until[i] = grid[k + 1] if k + 1 < len(grid) else np.inf
            meas_last[i] = s, seg_x[i][m] + seg_u[i][m] * (s - ts[m])
            return meas_last[i]

        # per-node controller side
        pending: list[Optional[float]] = [None] * n
        pend_edges: list[list[int]] = [[] for _ in range(n)]
        act_ver = [0] * n

        # per-edge controller state
        e_i = [a for a, _ in edges]
        e_j = [b for _, b in edges]
        e_ueff = [0.0] * ne
        e_eps = list(cfg.edge_eps)
        e_rate = list(cfg.edge_rate)
        e_trig_t = [0.0] * ne
        e_diff: list[Optional[float]] = [None] * ne
        e_own_delay = [0.0] * ne
        e_nbr_delay = [0.0] * ne
        e_nbr_val = [seg_x[b][0] for b in e_j]
        e_nbr_stamp = [0.0] * ne
        e_ver = [0] * ne
        phi_act = cfg.phi_act
        delta_act = cfg.delta_act
        adaptive = self.adaptive
        # edges with a nonzero input + nodes with a nonzero input + pending
        # nodes: the early stop needs all three at zero
        busy = 0

        def set_command(e, i, j, diff, eps_k, rate_k):
            """Apply the ternary rule to edge e; diff None means the link is jammed."""
            nonlocal busy
            if diff is None:
                u = 0
                theta = attacked_clock_reset(eps_k, degs[i], degs[j])
            else:
                u = deadzone_sign(diff, eps_k)
                theta = clock_reset(diff, eps_k, degs[i], degs[j])
            e_eps[e] = eps_k
            e_rate[e] = rate_k
            ueff = scaled_input(u, theta, rate_k, phi_act[i]) if adaptive else float(u)
            busy += (ueff != 0.0) - (e_ueff[e] != 0.0)
            e_ueff[e] = ueff
            e_ver[e] += 1
            return u, theta

        heap: list = []
        seq = 0

        def push(time_, kind, a=0, b=0):
            nonlocal seq
            heappush(heap, (time_, kind, seq, a, b))
            seq += 1

        for e in range(ne):
            push(cfg.activation_time, K_EXPIRY, e, 0)
        disturb_left = 0  # a frozen state is final only once none remain
        for dt_, node_, jump_ in sorted(cfg.disturbances):
            if dt_ <= horizon:
                push(dt_, K_DISTURB, node_, jump_)
                disturb_left += 1

        trigger_log: list = []
        closed: list = []
        act_ok = act_fail = comm_ok = comm_fail = 0

        alpha, beta = cfg.alpha, cfg.beta
        eps_floor = cfg.eps_floor
        resilient = self.resilient
        stop_when_frozen = cfg.stop_when_frozen
        frozen_at: Optional[float] = None

        while heap:
            t, kind, _sq, a, b = heappop(heap)
            if t > horizon + 1e-12:
                break

            if kind == K_EXPIRY:
                e, ver = a, b
                if ver != e_ver[e]:
                    continue
                i, j = e_i[e], e_j[e]
                comm_h = not self.comm_ch[e].is_attacked(t)
                if comm_h:
                    comm_ok += 1
                else:
                    comm_fail += 1
                e_trig_t[e] = t
                if comm_h or not resilient:
                    own_stamp, own_val = measured(i, t)
                    if comm_h:
                        e_nbr_stamp[e], e_nbr_val[e] = measured(j, t)
                    diff = e_nbr_val[e] - own_val
                    own_delay = t - own_stamp
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
                push(t + theta / rate_k, K_EXPIRY, e, e_ver[e])
                trigger_log.append(
                    (t, e, comm_h, diff, u, theta, eps_k, rate_k,
                     dwell_time_floor(eps_k, rate_k, degs[i], degs[j]))
                )

                new_sum = 0.0
                for oe in self.out_edges[i]:
                    new_sum += e_ueff[oe]
                if pending[i] is not None or new_sum != seg_u[i][-1]:
                    if pending[i] is None:
                        busy += 1
                    pending[i] = new_sum
                    if e not in pend_edges[i]:
                        pend_edges[i].append(e)
                    act_ver[i] += 1
                    push(t, K_ACT, i, act_ver[i])

                if stop_when_frozen and u == 0 and not disturb_left and not busy:
                    if spread is None:  # each state sits at its last segment's value
                        last = [xs[-1] for xs in seg_x]
                        spread = max(last) - min(last)
                    if spread < self.delta:
                        frozen_at = t
                        break

            elif kind == K_ACT:
                i, ver = a, b
                if ver != act_ver[i] or pending[i] is None:
                    continue
                if not self.act_ch[i].is_attacked(t):
                    act_ok += 1
                    busy += (pending[i] != 0.0) - (seg_u[i][-1] != 0.0) - 1
                    new_segment(i, t, pending[i])
                    pending[i] = None
                    for e in pend_edges[i]:
                        closed.append(
                            (e, e_trig_t[e], e_own_delay[e], e_nbr_delay[e],
                             t - e_trig_t[e], e_eps[e], e_rate[e])
                        )
                    pend_edges[i].clear()
                else:
                    act_fail += 1
                    if adaptive:
                        # actuation-delay estimate grew; re-tune pending commands
                        for e in pend_edges[i]:
                            if e_diff[e] is None:
                                continue
                            t_hat = actuation_estimate(e_trig_t[e], t, delta_act)
                            gamma = delay_aggregate(e_own_delay[e], e_nbr_delay[e], t_hat,
                                                    degs[i], degs[e_j[e]])
                            eps_k, rate_k = certified_params(gamma, alpha, beta, eps_floor)
                            _u, theta = set_command(e, i, e_j[e], e_diff[e], eps_k, rate_k)
                            push(max(e_trig_t[e] + theta / rate_k, t), K_EXPIRY, e, e_ver[e])
                        new_sum = 0.0
                        for oe in self.out_edges[i]:
                            new_sum += e_ueff[oe]
                        pending[i] = new_sum
                    push(t + delta_act, K_ACT, i, ver)

            else:  # K_DISTURB
                new_segment(a, t, seg_u[a][-1], b)
                disturb_left -= 1

        # the run covers the horizon, or ends at the trigger that froze it:
        # measurements at that instant precede it and count, and the last row
        # is the frozen state at that instant
        times = _record_times(cfg.record_period, horizon)
        if frozen_at is None:
            n_meas = len(grid)
        else:
            times = np.append(times[times < frozen_at], frozen_at)
            n_meas = bisect_right(grid, frozen_at)
        n_fail = sum(int(np.searchsorted(bad, n_meas)) for bad in meas_bad)
        stats = {"meas_ok": n * n_meas - n_fail, "meas_fail": n_fail,
                 "act_ok": act_ok, "act_fail": act_fail,
                 "comm_ok": comm_ok, "comm_fail": comm_fail}

        segments = [(np.frombuffer(seg_t[i]), np.frombuffer(seg_x[i]), np.frombuffer(seg_u[i]))
                    for i in range(n)]
        states = np.empty((times.size, n))
        inputs = np.empty((times.size, n))
        for i, seg in enumerate(segments):
            states[:, i], inputs[:, i] = _evaluate(*seg, times, after_jumps=True)

        mean = states.mean(axis=1, keepdims=True)
        v_series = 0.5 * ((states - mean) ** 2).sum(axis=1)
        spread = states.max(axis=1) - states.min(axis=1)
        entry, converged = _entry_time(times, spread, self.delta)
        return RunMetrics(
            times=times,
            states=states,
            inputs=inputs,
            v_series=v_series,
            spread_series=spread,
            delta=self.delta,
            entry_time=entry,
            converged=converged,
            trigger_log=trigger_log,
            closed_commands=closed,
            channel_stats=stats,
            directed_edges=self.edges,
            segments=segments,
        )
