"""Deterministic event-driven closed-loop simulation.

States integrate exactly (piecewise-linear between events), so there is no
step error by construction. One engine simulates one scalar-consensus
instance (frequency or droop-scaled power); both instances of a scenario
are two runs sharing topology and attack traces.

Event kinds at equal times resolve in a fixed order: attack boundary,
measurement attempt, clock expiry, actuation attempt, disturbance, record
sample; FIFO within a kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Optional, Sequence

import numpy as np

from .adaptive import actuation_estimate, delay_aggregate, scaled_input
from .attacks import ChannelSet, DosSequence
from .controller import attacked_clock_reset, clock_reset, deadzone_sign, dwell_time_floor
from .design import certified_params, lyapunov
from .topology import Topology

# event kinds, in tie-break priority order
K_BOUNDARY = 0
K_MEAS = 1
K_EXPIRY = 2
K_ACT = 3
K_DISTURB = 4
K_RECORD = 5


@dataclass
class EngineConfig:
    """Everything one instance run needs, fully resolved."""

    topology: Topology
    x0: Sequence[float]
    mode: str                                   # nominal | resilient-global | resilient-local | self-adaptive
    eps_floor: float
    edge_eps: Sequence[float]                   # per directed edge, design values
    edge_rate: Sequence[float]
    alpha: float = 1.5
    beta: float = 1.1
    phi_act: Sequence[float] | None = None      # per node, offline actuation bound
    delta_meas: Sequence[float] | None = None
    delta_act: Sequence[float] | None = None
    channels: ChannelSet | None = None
    per_direction_comm: bool = False
    activation_time: float = 0.0
    horizon: float = 60.0
    record_period: float = 0.05
    disturbances: Sequence[tuple[float, int, float]] = ()
    eps_reference: float | None = None          # delta = eps_reference * (n - 1)
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
    v_at_active_triggers: list  # (t, V) at successful triggers with |diff| >= eps
    channel_stats: dict
    directed_edges: list
    final_states: list

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

        self.phi_act = list(cfg.phi_act) if cfg.phi_act else [0.0] * self.n
        self.delta_meas = list(cfg.delta_meas) if cfg.delta_meas else [0.01] * self.n
        self.delta_act = list(cfg.delta_act) if cfg.delta_act else [0.01] * self.n

        self.resilient = cfg.mode != "nominal"
        self.adaptive = cfg.mode == "self-adaptive"
        n_ref = cfg.eps_reference if cfg.eps_reference is not None else cfg.eps_floor
        self.delta = n_ref * (self.n - 1)

    def run(self) -> RunMetrics:
        cfg = self.cfg
        n = self.n
        edges = self.edges
        ne = len(edges)
        degs = self.degs

        # plant
        x = [float(v) for v in cfg.x0]
        ustar = [0.0] * n
        t_now = 0.0

        # per-node controller side
        cache_val = list(x)
        cache_stamp = [0.0] * n
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
        e_nbr_val = [x[b] for b in e_j]
        e_nbr_stamp = [0.0] * ne
        e_ver = [0] * ne
        phi_act = self.phi_act
        adaptive = self.adaptive

        def set_command(e, i, j, diff, eps_k, rate_k):
            """Apply the ternary rule to edge e; diff None means the link is jammed."""
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

        heap: list = []
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
        disturb_left = 0  # a frozen state is final only once none remain
        for dt_, node_, jump_ in sorted(cfg.disturbances):
            if dt_ <= horizon:
                push(dt_, K_DISTURB, node_, jump_)
                disturb_left += 1
        k = 0
        while k * cfg.record_period <= horizon + 1e-12:
            push(k * cfg.record_period, K_RECORD)
            k += 1
        push(horizon, K_RECORD)
        for ch in (*self.meas_ch, *self.act_ch, *self.comm_ch):
            for window in ch.intervals:
                for b in window:
                    if b <= horizon:
                        push(b, K_BOUNDARY)

        times: list[float] = []
        rows: list[list[float]] = []
        input_rows: list[list[float]] = []
        trigger_log: list = []
        closed: list = []
        v_active: list = []
        stats = {"meas_ok": 0, "meas_fail": 0, "act_ok": 0, "act_fail": 0,
                 "comm_ok": 0, "comm_fail": 0}

        alpha, beta = cfg.alpha, cfg.beta
        eps_floor = cfg.eps_floor
        resilient = self.resilient
        frozen = False
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
                if not self.meas_ch[i].is_attacked(t):
                    cache_val[i] = x[i]
                    cache_stamp[i] = t
                    stats["meas_ok"] += 1
                else:
                    stats["meas_fail"] += 1
                nxt = t + self.delta_meas[i]
                if nxt <= horizon:
                    push(nxt, K_MEAS, i)

            elif kind == K_EXPIRY:
                e, ver = a, b
                if ver != e_ver[e]:
                    continue
                i, j = e_i[e], e_j[e]
                comm_h = not self.comm_ch[e].is_attacked(t)
                if comm_h:
                    stats["comm_ok"] += 1
                else:
                    stats["comm_fail"] += 1
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
                    v_active.append((t, lyapunov(x)))
                push(t + theta / rate_k, K_EXPIRY, e, e_ver[e])
                trigger_log.append(
                    (t, e, comm_h, diff, u, theta, eps_k, rate_k,
                     dwell_time_floor(eps_k, rate_k, degs[i], degs[j]))
                )

                new_sum = 0.0
                for oe in self.out_edges[i]:
                    new_sum += e_ueff[oe]
                if pending[i] is not None or new_sum != ustar[i]:
                    pending[i] = new_sum
                    if e not in pend_edges[i]:
                        pend_edges[i].append(e)
                    act_ver[i] += 1
                    push(t, K_ACT, i, act_ver[i])

                if cfg.stop_when_frozen and u == 0 and not disturb_left:
                    if (all(v == 0.0 for v in e_ueff) and all(v == 0.0 for v in ustar)
                            and all(p is None for p in pending)
                            and (max(x) - min(x)) < self.delta):
                        frozen = True
                        break

            elif kind == K_ACT:
                i, ver = a, b
                if ver != act_ver[i] or pending[i] is None:
                    continue
                if not self.act_ch[i].is_attacked(t):
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
                        # actuation-delay estimate grew; re-tune pending commands
                        for e in pend_edges[i]:
                            if e_diff[e] is None:
                                continue
                            t_hat = actuation_estimate(e_trig_t[e], t, self.delta_act[i])
                            gamma = delay_aggregate(e_own_delay[e], e_nbr_delay[e], t_hat,
                                                    degs[i], degs[e_j[e]])
                            eps_k, rate_k = certified_params(gamma, alpha, beta, eps_floor)
                            _u, theta = set_command(e, i, e_j[e], e_diff[e], eps_k, rate_k)
                            push(max(e_trig_t[e] + theta / rate_k, t), K_EXPIRY, e, e_ver[e])
                        new_sum = 0.0
                        for oe in self.out_edges[i]:
                            new_sum += e_ueff[oe]
                        pending[i] = new_sum
                    push(t + self.delta_act[i], K_ACT, i, ver)

            elif kind == K_RECORD:
                if t == last_record_t:
                    continue
                last_record_t = t
                times.append(t)
                rows.append(list(x))
                input_rows.append(list(ustar))

            elif kind == K_DISTURB:
                x[a] += b
                disturb_left -= 1

            # K_BOUNDARY: nothing beyond the exact-integration advance

        if frozen and (not times or times[-1] < t_now):
            times.append(t_now)
            rows.append(list(x))
            input_rows.append(list(ustar))
        return self._finish(times, rows, input_rows, trigger_log, closed,
                            v_active, stats, x, frozen)

    def _finish(self, times, rows, input_rows, trigger_log, closed, v_active,
                stats, x, frozen) -> RunMetrics:
        t_arr = np.asarray(times)
        s_arr = np.asarray(rows) if rows else np.zeros((0, self.n))
        u_arr = np.asarray(input_rows) if input_rows else np.zeros((0, self.n))
        if s_arr.size:
            mean = s_arr.mean(axis=1, keepdims=True)
            v_series = 0.5 * ((s_arr - mean) ** 2).sum(axis=1)
            spread = s_arr.max(axis=1) - s_arr.min(axis=1)
        else:
            v_series = np.zeros(0)
            spread = np.zeros(0)
        entry, converged = _entry_time(t_arr, spread, self.delta)
        return RunMetrics(
            times=t_arr,
            states=s_arr,
            inputs=u_arr,
            v_series=v_series,
            spread_series=spread,
            delta=self.delta,
            entry_time=entry,
            converged=converged,
            trigger_log=trigger_log,
            closed_commands=closed,
            v_at_active_triggers=v_active,
            channel_stats=stats,
            directed_edges=self.edges,
            final_states=list(x),
        )
