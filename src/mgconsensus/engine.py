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

Quiescent stretches. The ternary dead zone keeps every input at 0 once no
edge or node input is nonzero and no node awaits an actuation (`busy` counts
these), and every edge has read caches stamped after the latest segment
start, with its diff inside the dead zone (`fresh` holds those edges). Both
change in O(1) per event: an edge joins `fresh` at a reading trigger after
which nothing is busy, and every segment start empties it. When nothing is
busy and every edge is fresh after a trigger, the states stay constant until
the next disturbance, and every edge is simulated up to it (or to the
horizon) without the heap:

- offline modes: an edge's clock period eps / (2 (d_i + d_j) R) is constant,
  so its trigger times are a cumsum run and its comm health one `attacked`
  query;
- self-adaptive mode: each edge steps its gamma recurrence alone, with no
  node-input sum and no actuation push. Only an edge whose diff lies outside
  the eps floor can leave the dead zone; those step first, so that the others
  step only up to the earliest such trigger.

A trigger that would leave the dead zone (a nominal edge's first healthy read
after a jammed link, or an adapted eps that no longer covers the diff) hands
every edge back to the event heap at that instant. `trigger_log` keeps each
stretch as per-edge runs plus their heap order, found once by replaying the
heap on the runs' times alone, and builds its rows only when they are read.
Rows at equal times thus keep the heap's order, that of each edge's previous
trigger, and so do the expiries handed back, which take the order of the runs'
last rows from the same replay.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from math import nextafter
from typing import Optional

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

# a stretch's rows are built, or written, this many at a time
BLOCK = 4096


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


@dataclass(eq=False)
class _Run:
    """One edge's triggers in a quiescent stretch: their times, comm health
    and commanded (eps, rate), one pair in the offline modes and one per row
    in self-adaptive mode. Every row has u = 0 and theta and floor from its
    (eps, rate); its diff is `before` up to the first healthy row and `after`
    from there on, except that a resilient edge's jammed rows hold None. `q`
    orders the runs' first rows, as their pushes before the stretch did."""

    edge: int
    degs: tuple[int, int]
    times: np.ndarray
    healthy: np.ndarray
    eps: float | np.ndarray
    rate: float | np.ndarray
    before: Optional[float]
    after: float
    q: int

    def floors(self) -> np.ndarray:
        return np.broadcast_to(dwell_time_floor(self.eps, self.rate, *self.degs),
                               self.times.shape)

    def tails(self, resilient: bool) -> tuple[np.ndarray, list]:
        """The rows after their time, (edge, comm_healthy, diff, u, theta, eps,
        rate, dwell_floor): the distinct ones, and per row the index of its own."""
        size = self.times.size
        h = self.healthy
        # 0/1 jammed/healthy, + 2 from the first healthy row of a nominal edge
        phase = h.astype(np.int8)
        if not resilient and h.any():
            phase[int(np.argmax(h)):] += 2
        eps = np.broadcast_to(self.eps, (size,))
        rate = np.broadcast_to(self.rate, (size,))
        keys = (phase, eps.view(np.int64), rate.view(np.int64))
        new = np.zeros(size, dtype=bool)
        new[0] = True
        for col in keys:
            new[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(new)
        seen: dict = {}
        tails: list = []
        codes = []
        for s, key in zip(starts.tolist(), zip(*(col[starts].tolist() for col in keys))):
            code = seen.get(key)
            if code is None:
                code = seen[key] = len(tails)
                eps_k, rate_k = float(eps[s]), float(rate[s])
                if resilient:
                    diff = self.after if key[0] else None
                else:
                    diff = self.after if key[0] >= 2 else self.before
                # inside the dead zone clock_reset gives this theta as well
                tails.append((self.edge, bool(key[0] & 1), diff, 0,
                              attacked_clock_reset(eps_k, *self.degs), eps_k, rate_k,
                              dwell_time_floor(eps_k, rate_k, *self.degs)))
            codes.append(code)
        return np.repeat(np.array(codes, dtype=np.intp), np.diff(starts, append=size)), tails


class _Stretch:
    """The rows of a quiescent stretch, kept as one `_Run` per edge and their
    heap order; no row is kept, each is built when read."""

    def __init__(self, runs: list, resilient: bool):
        self.runs = runs                     # each with rows
        self.resilient = resilient
        self.size = sum(r.times.size for r in runs)
        self._merged: Optional[tuple] = None

    def __len__(self) -> int:
        return self.size

    def table(self) -> tuple[list, Iterator]:
        """The distinct rows after their time (see `_Run.tails`), and the rows in
        heap order as blocks of (times, indices into those), BLOCK rows each."""
        times, codes, tails = [], [], []
        for r in self.runs:
            c, t = r.tails(self.resilient)
            codes.append(c + len(tails))
            tails += t
            times.append(r.times)
        times, codes = np.concatenate(times), np.concatenate(codes)
        order = self._merge()[0]
        blocks = ((times[k], codes[k]) for k in (order[a:a + BLOCK]
                                                 for a in range(0, order.size, BLOCK)))
        return tails, blocks

    def _merge(self) -> tuple:
        """Replay the heap on the runs: pop the earliest (time, push) and push
        that run's next row with the pop's position; the first rows were pushed
        before the stretch, in the order of q. Gives the rows' positions in the
        runs' concatenation, in heap order, and the runs in the order their last
        rows pop: after its last row a run pushes an infinite time, so those
        entries end in that order."""
        if self._merged is None:
            runs = self.runs
            nexts = [iter(r.times.tolist() + [np.inf]).__next__ for r in runs]
            low = max((r.q for r in runs), default=0) + 1
            heap = [(nxt(), r.q - low, n) for n, (r, nxt) in enumerate(zip(runs, nexts))]
            heapify(heap)
            popped = array("q")              # the run of each row, in heap order
            add = popped.append
            for pos in range(self.size):
                n = heap[0][2]
                add(n)
                heapreplace(heap, (nexts[n](), pos, n))
            # a run's k-th pop is its k-th row
            order = np.empty(len(popped), dtype=np.intp)
            order[np.argsort(np.frombuffer(popped, dtype=np.int64), kind="stable")] = \
                np.arange(len(popped))
            self._merged = order, [n for _t, _pos, n in sorted(heap)]
        return self._merged


class TriggerLog:
    """A run's trigger rows (t, edge, comm_healthy, diff, u, theta, eps, rate,
    dwell_floor) in event order. Rows from the event heap are stored as they
    are; a quiescent stretch as per-edge runs, whose rows are built each time
    they are iterated, so `len()` never builds them."""

    def __init__(self, parts: list):
        self.parts = parts                   # lists of rows and `_Stretch`es
        self.size = sum(map(len, parts))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for part in self.parts:
            if isinstance(part, list):
                yield from part
                continue
            tails, blocks = part.table()
            for times, codes in blocks:
                yield from map(tuple.__add__, zip(times.tolist()),
                               map(tails.__getitem__, codes.tolist()))

    def tables(self) -> Iterator[tuple]:
        """Per part, rows after their time and the part's rows in event order
        as blocks of (times, indices into those): a stretch's distinct rows and
        blocks (see `_Stretch.table`), or a heap list's own rows in one block."""
        for part in self.parts:
            if isinstance(part, list):
                times = np.array([row[0] for row in part], dtype=float)
                yield [row[1:] for row in part], [(times, np.arange(len(part)))]
            else:
                yield part.table()

    def edge_columns(self) -> dict:
        """Per edge, its trigger times and dwell floors in order; stretches are
        read run by run, without building their rows."""
        cols: dict = {}
        for part in self.parts:
            if isinstance(part, list):
                groups: dict = {}
                for row in part:
                    ts, fs = groups.setdefault(row[1], ([], []))
                    ts.append(row[0])
                    fs.append(row[8])
                runs = [(e, np.array(ts), np.array(fs)) for e, (ts, fs) in groups.items()]
            else:
                runs = [(r.edge, r.times, r.floors()) for r in part.runs]
            for e, ts, fs in runs:
                cols.setdefault(e, []).append((ts, fs))
        return {e: (np.concatenate([ts for ts, _ in c]), np.concatenate([fs for _, fs in c]))
                for e, c in cols.items()}


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
    trigger_log: TriggerLog     # (t, edge, comm_healthy, diff, u, theta, eps, rate, dwell_floor)
    closed_commands: list       # (edge, trigger_t, own_delay, nbr_delay, act_delay, eps, rate)
    retunes: list               # (edge, trigger_t, dwell_floor) per failed-actuation re-tune
    channel_stats: dict
    directed_edges: list
    segments: list              # per node, arrays (t, x, u) of segment starts, as in run()

    def min_dwell_margin(self) -> float:
        """Smallest (observed gap - guaranteed floor) over all edges. A gap's
        floor is that of the last command set on the edge before it: its
        trigger row's, or that of a later re-tune of the same command."""
        cols = self.trigger_log.edge_columns()
        for e, t, floor_ in self.retunes:
            times, floors = cols[e]
            floors[np.searchsorted(times, t)] = floor_
        margin = np.inf
        for times, floors in cols.values():
            if times.size > 1:
                margin = min(margin, float(np.min(np.diff(times) - floors[:-1])))
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


def _cumsum_run(t0: float, step: float, limit: float) -> np.ndarray:
    """t0, t0 + step, ... while before `limit`, then the first point past it.
    Each point is the previous one plus step: np.cumsum adds in order, so
    these are the floats of a loop that repeats t += step."""
    count = max(int((limit - t0) / step), 0) + 2
    while True:
        steps = np.full(count, step)
        steps[0] = t0
        run = np.cumsum(steps)
        k = int(np.searchsorted(run, limit, side="left"))
        if k < count:
            return run[: k + 1]
        count *= 2


def _measurement_grid(delta: float, horizon: float) -> np.ndarray:
    """0, delta, 2 delta, ... up to the horizon, as a loop repeating t += delta."""
    return _cumsum_run(0.0, delta, nextafter(horizon, np.inf))[:-1]


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
        if any(p < 0.0 for p in cfg.phi_act):
            raise ValueError("phi_act must be non-negative")

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
        # the latest segment start after the initial ones: a read at a later
        # stamp sees every node's current segment
        last_start = -1.0
        # edges that read such stamps at a trigger after which nothing was busy
        fresh: set = set()

        def new_segment(i, t, slope, jump=0.0):
            nonlocal last_start
            ts, xs, us = seg_t[i], seg_x[i], seg_u[i]
            xs.append(xs[-1] + us[-1] * (t - ts[-1]) + jump)
            ts.append(t)
            us.append(slope)
            last_start = t
            fresh.clear()

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
            """(stamp, value) of node i's cache at a trigger at t, which is not
            before the last one's."""
            if t < meas_until[i]:
                return meas_last[i]
            k = bisect_right(grid, t) - 1
            s = grid[meas_jam[i].get(k, k)]
            ts = seg_t[i]
            m = len(ts) - 1
            while m and ts[m] >= s:  # the value just before any jump at s
                m -= 1
            meas_until[i] = grid[k + 1] if k + 1 < len(grid) else np.inf
            meas_last[i] = s, seg_x[i][m] + seg_u[i][m] * (s - ts[m])
            return meas_last[i]

        def stamp(i, t):
            """The stamp of node i's cache at t, at any t."""
            k = bisect_right(grid, t) - 1
            return grid[meas_jam[i].get(k, k)]

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
        # edges with a nonzero input + nodes with a nonzero input + pending nodes
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
        for dt_, node_, jump_ in sorted(cfg.disturbances):
            if dt_ <= horizon:
                push(dt_, K_DISTURB, node_, jump_)

        log_parts: list = [[]]
        log_rows = log_parts[-1]
        closed: list = []
        retunes: list = []
        act_ok = act_fail = comm_ok = comm_fail = 0

        alpha, beta = cfg.alpha, cfg.beta
        eps_floor = cfg.eps_floor
        resilient = self.resilient

        def hand_back(expiries):
            """Replace the heap's expiries and stale actuation attempts by
            `expiries`, (time, edge) in the order the heap pushed them."""
            heap[:] = [ev for ev in heap if ev[1] == K_DISTURB]
            heapify(heap)
            for time_, e in expiries:
                e_ver[e] += 1
                push(time_, K_EXPIRY, e, e_ver[e])

        def step_adaptive(e, diff, st, until):
            """Step edge e's gamma recurrence from st = [t, eps, rate, times,
            healths, epss, rates] while t < until; True if it stops at a
            trigger whose adapted eps does not cover the diff."""
            t, eps_k, rate_k, ts, hs, es, rs = st
            attacked = self.comm_ch[e].is_attacked
            jam_i, jam_j = meas_jam[e_i[e]].get, meas_jam[e_j[e]].get
            d_i, d_j = degs[e_i[e]], degs[e_j[e]]
            add_t, add_h, add_eps, add_rate = ts.append, hs.append, es.append, rs.append
            # a stretch sees few gamma values: apply the rules once per value,
            # giving (eps, rate, clock period), or None where eps breaks
            rule: dict = {}
            broke = False
            while t < until:
                if attacked(t):
                    period = attacked_clock_reset(eps_k, d_i, d_j) / rate_k
                    add_h(False)
                else:
                    k = bisect_right(grid, t) - 1
                    gamma = delay_aggregate(t - grid[jam_i(k, k)], t - grid[jam_j(k, k)],
                                            0.0, d_i, d_j)
                    try:
                        got = rule[gamma]
                    except KeyError:
                        eps_n, rate_n = certified_params(gamma, alpha, beta, eps_floor)
                        got = rule[gamma] = None if deadzone_sign(diff, eps_n) else \
                            (eps_n, rate_n, clock_reset(diff, eps_n, d_i, d_j) / rate_n)
                    if got is None:
                        broke = True
                        break
                    eps_k, rate_k, period = got
                    add_h(True)
                add_t(t)
                add_eps(eps_k)
                add_rate(rate_k)
                t = t + period
            st[:3] = t, eps_k, rate_k
            return broke

        def stretch_runs(live, diffs, limit):
            """Every edge's triggers from its live expiry (time, seq) while before
            `limit`, cut before the first one that would leave the dead zone.
            Returns the runs of the edges with rows, each edge's next expiry and
            the cut."""
            cols, breaks = [], []
            if adaptive:
                st = [[t0, e_eps[e], e_rate[e], [], [], [], []] for e, (t0, _sq) in enumerate(live)]
                # eps never falls below the floor: only an edge whose diff is
                # outside it can break, and those step first
                for e in sorted(range(ne), key=lambda e: not deadzone_sign(diffs[e], eps_floor)):
                    if step_adaptive(e, diffs[e], st[e], min(breaks, default=limit)):
                        breaks.append(st[e][0])
                for t, _eps, _rate, ts, hs, es, rs in st:
                    cols.append((np.array(ts + [t]), np.array(hs, dtype=bool),
                                 np.array(es), np.array(rs)))
            else:
                for e, (t0, _sq) in enumerate(live):
                    eps_k, rate_k = e_eps[e], e_rate[e]
                    # clock_reset inside the dead zone gives this float as well
                    theta = attacked_clock_reset(eps_k, degs[e_i[e]], degs[e_j[e]])
                    times = _cumsum_run(t0, theta / rate_k, limit)
                    healthy = ~self.comm_ch[e].attacked(times[:-1])
                    if deadzone_sign(diffs[e], eps_k) and healthy.any():
                        breaks.append(times[int(np.argmax(healthy))])
                    cols.append((times, healthy, eps_k, rate_k))
            cut = min(breaks, default=limit)
            q = np.argsort(np.argsort([sq for _t, sq in live]))
            runs, nxt = [], []
            for e, (times, healthy, eps_k, rate_k) in enumerate(cols):
                k = int(np.searchsorted(times[:-1], cut, side="left"))
                nxt.append(float(times[k]))
                if k:
                    if adaptive:
                        eps_k, rate_k = eps_k[:k], rate_k[:k]
                    runs.append(_Run(e, (degs[e_i[e]], degs[e_j[e]]), times[:k], healthy[:k],
                                     eps_k, rate_k, e_diff[e], diffs[e], int(q[e])))
            return runs, nxt, cut

        def fast_forward(t_now):
            """Run a quiescent stretch from a trigger at t_now and log it, with a
            new list for the heap's rows after it; False at the horizon."""
            live = [None] * ne
            disturb = []
            for time_, kind, sq, a, b in heap:
                if kind == K_EXPIRY and b == e_ver[a]:
                    live[a] = (time_, sq)
                elif kind == K_DISTURB:
                    disturb.append(time_)
            limit = min(disturb) if disturb else nextafter(horizon + 1e-12, np.inf)
            # every node's cache reads its current segment from here on
            x_now = [measured(i, t_now)[1] for i in range(n)]
            diffs = [x_now[j] - x_now[i] for i, j in edges]
            runs, nxt, cut = stretch_runs(live, diffs, limit)
            stretch = _Stretch(runs, resilient)
            if runs:
                log_parts.extend((stretch, []))
            if cut == limit and not disturb:
                return False
            # the heap resumes at the cut: leave each edge as its last row did
            for r in runs:
                e, i, j = r.edge, e_i[r.edge], e_j[r.edge]
                e_trig_t[e] = float(r.times[-1])
                if adaptive:
                    e_eps[e], e_rate[e] = float(r.eps[-1]), float(r.rate[-1])
                read = np.flatnonzero(r.healthy)
                t_read = e_trig_t[e]
                if read.size:
                    t_read = float(r.times[read[-1]])
                    e_nbr_stamp[e], e_nbr_val[e] = stamp(j, t_read), x_now[j]
                    e_diff[e] = r.after
                if resilient and not r.healthy[-1]:
                    e_diff[e] = None  # the own cache is read with the link only
                if read.size or not resilient:
                    e_own_delay[e] = t_read - stamp(i, t_read)
                    e_nbr_delay[e] = t_read - e_nbr_stamp[e]
            ran = {r.edge for r in runs}
            order = sorted((e for e in range(ne) if e not in ran), key=lambda e: live[e][1])
            order += [runs[k].edge for k in stretch._merge()[1]]
            hand_back([(nxt[e], e) for e in order])
            return True

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
                log_rows.append(
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

                if not busy:
                    # a jammed resilient trigger reads nothing
                    if diff is not None and own_stamp > last_start and \
                            (not comm_h or e_nbr_stamp[e] > last_start):
                        fresh.add(e)
                    if len(fresh) == ne:
                        if not fast_forward(t):
                            break
                        log_rows = log_parts[-1]

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
                            retunes.append((e, e_trig_t[e], dwell_time_floor(
                                eps_k, rate_k, degs[i], degs[e_j[e]])))
                        new_sum = 0.0
                        for oe in self.out_edges[i]:
                            new_sum += e_ueff[oe]
                        pending[i] = new_sum
                    push(t + delta_act, K_ACT, i, ver)

            else:  # K_DISTURB
                new_segment(a, t, seg_u[a][-1], b)

        for part in log_parts:  # the stretches' comm attempts
            if isinstance(part, _Stretch):
                for r in part.runs:
                    ok = int(np.count_nonzero(r.healthy))
                    comm_ok += ok
                    comm_fail += r.healthy.size - ok
        times = _record_times(cfg.record_period, horizon)
        n_fail = sum(bad.size for bad in meas_bad)
        stats = {"meas_ok": n * len(grid) - n_fail, "meas_fail": n_fail,
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
            trigger_log=TriggerLog([p for p in log_parts if len(p)]),
            closed_commands=closed,
            retunes=retunes,
            channel_stats=stats,
            directed_edges=self.edges,
            segments=segments,
        )
