"""Deterministic event-driven closed-loop simulation.

Each node's state is piecewise linear in time: a new segment (start, value,
slope) begins only when that node's actuation succeeds or a disturbance hits
it, so states integrate exactly and their round-off does not depend on the
other events. One engine simulates one scalar-consensus instance (frequency
or droop-scaled power); both instances of a scenario are two runs sharing
topology and attack traces.

The event heap holds clock expiries, actuation attempts and disturbances; at
equal times they resolve in that order. Each edge runs its own clock, so
expiries at one time have no order in the model: they pop by link, as
`Topology.edges` lists the links, the lower node's direction (i < j) first
(`Simulation.key`). Attempts and disturbances at one time pop FIFO. An attempt
due at the instant it is queued waits in a FIFO beside the heap (`due`), which
spares a large graph's busiest path a heap push and pop. Measurements and
record samples are not events:

- node i measures itself on its grid 0, delta*_meas, 2 delta*_meas, ...; a
  trigger at t reads i's cache lazily as x_i at the latest healthy grid point
  <= t, taken just before any disturbance at that instant (a measurement
  precedes an expiry at equal times, a disturbance follows both). Trigger
  times never fall, so the run keeps one grid cursor, the step k with
  grid[k] <= t < grid[k + 1]; it moves, by one bisect from k, only when a
  trigger reaches the next grid point, and a read is x_i at
  grid[jam_i.get(k, k)] from i's segments, with no per-node cache;
- record samples are read from the segments after the run, just after any
  jump at their time (they follow every event). `RunMetrics.segments` keeps
  the segments for reads at other times.

Quiescent stretches. The ternary dead zone keeps every input at 0 once no
edge or node input is nonzero and no node awaits an actuation (`busy` counts
these), and every edge has read caches stamped after the latest segment
start, with its diff inside the dead zone (`fresh` holds those edges). Both
change in O(1) per event: an edge joins `fresh` at a reading trigger after
which nothing is busy, and every segment start empties it. When nothing is
busy and every edge is fresh after a trigger, the states stay constant until
the next disturbance, and `fast_forward` steps every edge up to it (or to the
horizon) without the heap. Only an edge whose diff lies outside the eps floor,
which no eps falls below, can leave the dead zone; those step first, and each
edge steps up to the earliest such trigger so far. A row before it has u = 0
and its command's theta and floor, resolved by one `trigger` call where the
command first appears (a row (eps, rate, theta, floor) of its run's `params`):

- offline modes: an edge's clock period eps / (2 (d_i + d_j) R) is constant,
  so its trigger times are a cumsum run and its comm health one `attacked`
  query, several times faster than `step_adaptive` would step them;
- self-adaptive mode: `step_adaptive` steps an edge's gamma recurrence, with
  no node-input sum and no actuation push, a row at a time while its adapted
  command changes. Once two healthy rows in a row keep command c, it steps a
  block of rows in numpy: their times are one cumsum of c's period, their
  health one `attacked` query and their gammas one `delay_aggregate` on
  arrays. A block ends at the next grid point jammed for either node (up to
  it, both stamps are the grid point below t, and the stop bounds the gammas
  computed past the cut), at the stretch's end or after BLOCK rows, and is
  cut at its first healthy row whose command is not c; that row goes back to
  the row-at-a-time loop. Gammas are looked up once per run of equal values,
  in time order and only up to the cut, so a new gamma is certified when the
  row-at-a-time loop would certify it.

A trigger that would leave the dead zone (a nominal edge's first healthy read
after a jammed link, or an adapted eps that no longer covers the diff) hands
every edge back to the event heap at that instant, in one pass over the edges
that cuts each run, pushes its next expiry in edge order, counts its healthy
reads, folds its dwell margin and leaves its edge as its last row did. The run
packs each heap row into one fixed-width `ROW` record of a `trigger_log` part
(`_Rows`), and each closed command into one `CLOSED` record of
`closed_commands` (`_Records`); both are read a block at a time (`records()`,
and the log's `blocks()`), each block a view through its numpy dtype.
`trigger_log` builds a stretch's rows only when read, from its per-edge runs,
in the order the heap would pop them: one sort by (time, key).

Link pairs. When an expiry pops and its reverse edge's live expiry is next at
the same t, one pass fires both. No segment starts between them, so the second
reuses the first's reads, its health on one comm channel, and when both are
healthy gamma = d_i (t - s_i) + d_j (t - s_j) (one sum either way) and its
(eps, R). The second's diff is then exactly the first's negated, and the
trigger rule is odd in the diff (its dead zone is symmetric) and symmetric in
the degrees: where both run one (eps, R), the second takes -u and the first's
theta and floor without applying the rule, and keeps its own input, row and
actuation. The first is the lower direction, and equal next expiries go back
as one link entry under its key: a link's two keys are adjacent, so pops keep
their order. A jammed direction, per-edge eps or a re-tune (a stale version in
the entry) splits a pair; none straddles a stretch's start.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import isfinite, nan, nextafter
from struct import Struct
from typing import Optional

import numpy as np

from .attacks import ChannelSet, DosSequence
from .controller import actuation_estimate, delay_aggregate, scaled_input, trigger
from .design import certified_params
from .topology import Topology

# event kinds, in tie-break priority order
K_EXPIRY = 0
K_ACT = 1
K_DISTURB = 2

# a log part's rows are read and written, and a stretch's stepped, this many at a time
BLOCK = 4096

# a trigger row, 54 bytes packed; NaN in `diff` is None, a jammed resilient link
ROW = np.dtype([("t", "<f8"), ("edge", "<u4"), ("healthy", "?"), ("diff", "<f8"), ("u", "i1"),
                ("theta", "<f8"), ("eps", "<f8"), ("rate", "<f8"), ("floor", "<f8")])
# a row after its time: the fields of ROW but `t`, at their offsets
TAIL = ROW[list(ROW.names[1:])]
# a closed command and the delays observed for it, 52 bytes packed
CLOSED = np.dtype([("edge", "<u4"), ("trigger_t", "<f8"), ("own", "<f8"), ("nbr", "<f8"),
                   ("act", "<f8"), ("eps", "<f8"), ("rate", "<f8")])


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
    delta: float                                # target set: spread < delta
    channels: ChannelSet | None = None
    per_direction_comm: bool = False
    activation_time: float = 0.0
    disturbances: Sequence[tuple[float, int, float]] = ()


@dataclass(eq=False)
class _Run:
    """One edge's triggers in a quiescent stretch, as columns: their times,
    comm health and command, an index into `params`, the run's distinct
    commands as rows (eps, rate, theta, floor), each stored where its command
    first appears (one row in the offline modes). A row's diff is `before` up
    to the first healthy row and `after` from there on; a resilient run has no
    `before`, and its jammed rows hold None. Every row lies in the dead zone,
    so its u is 0 and its theta and floor are its command's. `key` is the
    edge's heap key (`Simulation.key`)."""

    edge: int
    times: np.ndarray
    healthy: np.ndarray
    cmd: np.ndarray
    params: list
    before: Optional[float]
    after: float
    key: int

    def tails(self) -> tuple[np.ndarray, list]:
        """The rows after their time, as TAIL tuples (edge, comm_healthy, diff,
        u, theta, eps, rate, dwell_floor): per row the index of its own, and the
        distinct ones."""
        # health in bit 0, a nominal edge's rows from its first healthy one in
        # bit 1, the command above them
        key = self.healthy + 4 * self.cmd
        if self.before is not None and self.healthy.any():
            key[int(np.argmax(self.healthy)):] |= 2
        seen = np.flatnonzero(np.bincount(key))
        code = np.zeros(int(seen[-1]) + 1, dtype=np.intp)
        code[seen] = np.arange(seen.size)
        tails = []
        for k in seen.tolist():
            eps, rate, theta, floor = self.params[k >> 2]
            diff = self.after if k & 3 else self.before
            tails.append((self.edge, k & 1, nan if diff is None else diff, 0, theta, eps, rate,
                          floor))
        return code[key], tails


class _Stretch:
    """The rows of a quiescent stretch, kept as one `_Run` per edge; no row is
    kept, each is built when read."""

    def __init__(self, runs: list):
        self.runs = runs                     # each with rows

    def __len__(self) -> int:
        return sum(r.times.size for r in self.runs)

    def table(self) -> Iterator:
        """The rows in heap order, by (time, key), as blocks of (times, tails,
        codes) of at most BLOCK rows: every block shares the stretch's distinct
        tails (see `_Run.tails`), and codes index them per row."""
        times, codes, tails = [], [], []
        for r in self.runs:
            c, t = r.tails()
            codes.append(c + len(tails))
            tails += t
            times.append(r.times)
        times, codes, tails = np.concatenate(times), np.concatenate(codes), np.array(tails, TAIL)
        keys = np.repeat([r.key for r in self.runs], [r.times.size for r in self.runs])
        order = np.lexsort((keys, times))
        for a in range(0, order.size, BLOCK):
            k = order[a:a + BLOCK]
            yield times[k], tails, codes[k]


class _Records:
    """Records of one dtype, packed in blocks of BLOCK records. The engine
    appends `struct.pack(...)` to the last block, a bytearray, and `seal` keeps
    it as `bytes` of exactly its size, so no growth slack is kept."""

    def __init__(self, dtype: np.dtype = ROW):
        self.dtype, self.full, self.blocks = dtype, BLOCK * dtype.itemsize, [bytearray()]
        # the dtype's layout: its fields' codes, little-endian and unpadded
        self.struct = Struct("<" + "".join(dtype[k].char for k in dtype.names))

    def __len__(self) -> int:
        return sum(map(len, self.blocks)) // self.dtype.itemsize

    def seal(self) -> bytearray:
        """Keep the last block as bytes, and start a new one."""
        self.blocks[-1] = bytes(self.blocks[-1])
        self.blocks.append(bytearray())
        return self.blocks[-1]

    def records(self) -> Iterator[np.ndarray]:
        """Each non-empty block as a view of its records, in append order."""
        for data in self.blocks:
            if data:
                yield np.frombuffer(data, self.dtype)


class _Rows(_Records):
    """The event heap's rows, as ROW records."""

    def table(self) -> Iterator:
        """Blocks of (times, tails, codes) in log order: each block's times and
        tails are views of its own records, and its codes count them."""
        for block in self.records():
            yield block["t"], block.view(TAIL), np.arange(block.size)


class TriggerLog:
    """A run's trigger rows in event order, in parts (`_Rows`, `_Stretch`) whose
    `table()` gives blocks of (times, tails, codes): the rows' times, TAIL
    records, and per row the index of its record. Every reader walks them
    through `blocks()` and takes the records column by column."""

    def __init__(self, parts: list):
        self.parts = parts

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def blocks(self) -> Iterator:
        """Every part's blocks of (times, tails, codes), in log order."""
        for part in self.parts:
            yield from part.table()

    def __iter__(self):
        """Each row as a tuple (t, edge, comm_healthy, diff, u, theta, eps, rate,
        dwell_floor), with diff None on a jammed resilient link."""
        for times, tails, codes in self.blocks():
            if tails.size < codes.size:  # a stretch's shared tails: each one's tuple once
                rows = list(zip(*_columns(tails)))
                yield from map(tuple.__add__, zip(times.tolist()),
                               map(rows.__getitem__, codes.tolist()))
            else:
                yield from zip(times.tolist(), *_columns(tails, codes))


def _columns(tails: np.ndarray, codes=slice(None)) -> list:
    """The TAIL columns of the records `tails[codes]` as lists, a NaN diff as None."""
    cols = [tails[k][codes].tolist() for k in TAIL.names]
    cols[2] = [None if d != d else d for d in cols[2]]
    return cols


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
    closed_commands: _Records   # CLOSED records, one per actuated command: its edge, trigger
    #                             time, own, neighbour and actuation delays, and (eps, rate)
    retunes: list               # (edge, trigger_t, dwell_floor) per failed-actuation re-tune
    channel_stats: dict
    directed_edges: list
    segments: list              # per node, arrays (t, x, u) of segment starts, as in run()
    dwell_margin: float         # least (gap between an edge's triggers - the floor of the last
    #                             command set on it before the gap, by a row or a re-tune)


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


def _cumsum_run(t0: float, step: float, limit: float, cap: float = np.inf) -> np.ndarray:
    """t0, t0 + step, ... while before `limit`, then the first point past it,
    or the first `cap` points if that is fewer. Each point is the previous one
    plus step: np.cumsum adds in order, so these are the floats of a loop that
    repeats t += step."""
    count = max(int((limit - t0) / step), 0) + 2
    while True:
        count = min(count, cap)
        steps = np.full(count, step)
        steps[0] = t0
        run = np.cumsum(steps)
        k = int(np.searchsorted(run, limit, side="left"))
        if k < count or count == cap:
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
              times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One node's state and slope at the sorted `times` >= 0, a segment's start
    read on that segment."""
    # each segment covers a run of consecutive times: repeat it over its run
    first = np.searchsorted(times, seg_t, side="left")
    first[0] = 0
    counts = np.diff(first, append=times.size)
    slope = np.repeat(seg_u, counts)
    x = times - np.repeat(seg_t, counts)
    x *= slope
    x += np.repeat(seg_x, counts)
    return x, slope


class _Stamps:
    """The measurement grid and each node's cache stamp on it: a read at t
    sees the latest grid point <= t that is healthy for its node, or 0, which
    reads x0 as the initial cache does."""

    def __init__(self, delta: float, horizon: float, channels: Sequence[DosSequence]):
        self.grid_np = _measurement_grid(delta, horizon)
        self.grid = self.grid_np.tolist()
        # per node, its jammed grid points, each mapped to its latest healthy one before it
        self.jam = []
        for ch in channels:
            attacked = ch.attacked(self.grid_np)
            bad = np.flatnonzero(attacked)
            before = np.maximum.accumulate(np.where(attacked, 0, np.arange(attacked.size))) \
                if bad.size else bad
            self.jam.append(dict(zip(bad.tolist(), before[bad].tolist())))

    def __call__(self, i: int, t: float) -> float:
        """The stamp of node i's cache at t."""
        k = bisect_right(self.grid, t) - 1
        return self.grid[self.jam[i].get(k, k)]


def step_adaptive(stamps: _Stamps, i: int, j: int, degs: tuple[int, int], link: DosSequence,
                  cmd: tuple[float, float], diff: float, t: float, until: float,
                  certify) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, bool]:
    """Step the gamma recurrence of edge (i, j) in a quiescent stretch, from its
    expiry at t while t < until, under command `cmd` = (eps, rate); `certify`
    maps a gamma to its (eps, rate). Returns its run's columns (times, then the
    next expiry; health; command), the commands' rows (eps, rate, theta,
    floor), and whether it stops at a trigger whose adapted eps does not cover
    the diff.

    Rows are stepped one by one while the command changes. Once two healthy
    rows in a row keep it, they are stepped in blocks (see the module
    docstring); a block's rows are the floats of the one-by-one loop."""
    health = link.health
    grid, grid_np = stamps.grid, stamps.grid_np
    jam_i, jam_j = stamps.jam[i].get, stamps.jam[j].get
    jammed = sorted(stamps.jam[i].keys() | stamps.jam[j].keys())
    d_i, d_j = degs
    # the distinct commands, each one's row (eps, rate, theta, floor) inside
    # the dead zone, and its clock period
    cmds = {cmd: 0}
    params = [(*cmd, *trigger(None, *cmd, d_i, d_j)[1:])]
    periods = [params[0][2] / cmd[1]]
    # a stretch sees few gamma values: apply the rules once per value, giving a
    # command, or -1 where eps breaks
    rule: dict = {}

    def command(gamma):
        c = rule.get(gamma)
        if c is None:
            eps_n, rate_n = certify(gamma)
            c = rule[gamma] = -1 if trigger(diff, eps_n, rate_n, d_i, d_j)[0] else \
                cmds.setdefault((eps_n, rate_n), len(cmds))
            if c == len(params):
                params.append((eps_n, rate_n, *trigger(None, eps_n, rate_n, d_i, d_j)[1:]))
                periods.append(params[c][2] / rate_n)
        return c

    def block(t, c):
        """The rows from t under command c up to the first healthy one whose
        command is not c, the next grid point jammed for i or j, `until`, or
        BLOCK rows: their times and health, the next row's time, and whether
        the command changes there. None at a grid point jammed for i or j."""
        k = bisect_right(grid, t) - 1
        b = bisect_left(jammed, k)
        if b < len(jammed) and jammed[b] == k:
            return None
        # up to the next jammed grid point both stamps are the grid point below t
        end = min(until, grid[jammed[b]]) if b < len(jammed) else until
        times = _cumsum_run(t, periods[c], end, BLOCK)
        m = times.size - 1
        healthy = ~link.attacked(times[:m])
        at = np.flatnonzero(healthy)
        lag = times[at]
        lag -= grid_np[np.searchsorted(grid_np, lag, side="right") - 1]
        gamma = delay_aggregate(lag, lag, 0.0, d_i, d_j)
        # a row of the gamma of the row before it has that row's command: look
        # up the others in time order, up to the first of another command
        stop = at.size
        if at.size:
            firsts = np.flatnonzero(np.concatenate(([True], gamma[1:] != gamma[:-1])))
            for r, g in zip(firsts.tolist(), gamma[firsts].tolist()):
                if command(g) != c:
                    stop = r
                    break
        if stop < at.size:
            m = int(at[stop])
        return times[:m], healthy[:m], float(times[m]), stop < at.size

    cols: list = []
    ts, hs, cs = [], [], []                  # rows stepped one by one since a block
    c = kept = 0
    broke = False
    while t < until:
        if kept >= 2:
            rows = block(t, c)
            if rows is not None:
                cols.append((ts, hs, cs))
                ts, hs, cs = [], [], []
                times, healthy, t, changes = rows
                cols.append((times, healthy, np.full(times.size, c)))
                if changes:
                    kept = 0
                continue
        healthy = health(t)[0]
        if healthy:
            k = bisect_right(grid, t) - 1
            c_new = command(delay_aggregate(t - grid[jam_i(k, k)], t - grid[jam_j(k, k)],
                                            0.0, d_i, d_j))
            if c_new < 0:
                broke = True
                break
            kept = kept + 1 if c_new == c else 0
            c = c_new
        ts.append(t)
        hs.append(healthy)
        cs.append(c)
        t = t + periods[c]
    ts.append(t)
    cols.append((ts, hs, cs))
    return (*(np.concatenate([np.asarray(col[k], dtype=dt) for col in cols])
              for k, dt in enumerate((float, bool, np.intp))), params, broke)


class Simulation:
    """Single-threaded deterministic engine for one scenario instance."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        topo = cfg.topology
        self.n = topo.node_count
        self.degs = topo.degrees
        self.edges = topo.directed_edges()
        self.edge_index = {e: k for k, e in enumerate(self.edges)}
        # each directed edge's rank among expiries at one time: its link's
        # place in `topo.edges`, then the lower node's direction first
        link = {e: k for k, e in enumerate(topo.edges)}
        self.key = [2 * link[min(i, j), max(i, j)] + (i > j) for i, j in self.edges]
        self.out_edges = [
            [self.edge_index[(i, j)] for j in topo.neighbors[i]] for i in range(self.n)
        ]
        if len(cfg.edge_eps) != len(self.edges) or len(cfg.edge_rate) != len(self.edges):
            raise ValueError("edge_eps/edge_rate must match the directed edge count")
        # eps <= 0 leaves the ternary rule no dead zone, and R = 0 no clock period
        if not all(0.0 < v < np.inf for v in (*cfg.edge_eps, *cfg.edge_rate)):
            raise ValueError("edge_eps and edge_rate must be positive and finite")
        # every delay t - stamp is then >= 0; a NaN would pass a `< 0` test
        if not cfg.activation_time >= 0.0:
            raise ValueError("activation_time must be >= 0")
        if not all(p >= 0.0 for p in cfg.phi_act):
            raise ValueError("phi_act must be non-negative")
        # a zero actuation interval retries a jammed attempt at one t forever
        for name in ("delta_meas", "delta_act", "record_period", "delta"):
            if not 0.0 < getattr(cfg, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # a log row's NaN diff stands for None, so every state stays finite
        if not all(map(isfinite, cfg.x0)) or not all(isfinite(d[2]) for d in cfg.disturbances):
            raise ValueError("x0 and disturbance jumps must be finite")

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

    def run(self) -> RunMetrics:
        cfg = self.cfg
        n = self.n
        edges = self.edges
        ne = len(edges)
        degs = self.degs
        horizon = cfg.horizon
        t_end = horizon + 1e-12
        out_edges = self.out_edges

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

        stamps = _Stamps(cfg.delta_meas, horizon, self.meas_ch)
        grid, meas_jam = stamps.grid, stamps.jam
        # the grid cursor, the step k with grid[k] <= t < g_next (module docstring),
        # set at the first expiry; a segment that starts later cannot change a read at k
        k, g_next = 0, -np.inf

        def measured(i, step):
            """Node i's cached value in grid step `step`."""
            s = grid[meas_jam[i].get(step, step)]
            ts = seg_t[i]
            m = len(ts) - 1
            while m and ts[m] >= s:  # the value just before any jump at s
                m -= 1
            return seg_x[i][m] + seg_u[i][m] * (s - ts[m])

        # per-node controller side
        pending: list[Optional[float]] = [None] * n
        pend_edges: list[list[int]] = [[] for _ in range(n)]
        act_ver = [0] * n

        # per-edge controller state
        e_i = [a for a, _ in edges]
        e_j = [b for _, b in edges]
        e_deg = [(degs[a], degs[b]) for a, b in edges]
        e_ueff = [0.0] * ne
        e_eps = list(cfg.edge_eps)
        e_rate = list(cfg.edge_rate)
        e_trig_t = [0.0] * ne
        e_floor = [-np.inf] * ne  # the dwell floor of the last command set on the edge
        e_diff: list[Optional[float]] = [None] * ne
        e_own_delay = [0.0] * ne
        e_nbr_delay = [0.0] * ne
        e_nbr_val = [seg_x[b][0] for b in e_j]
        e_nbr_stamp = [0.0] * ne
        e_ver = [0] * ne
        rev = [self.edge_index[(j, i)] for i, j in edges]
        one_comm = [self.comm_ch[e] is self.comm_ch[rev[e]] for e in range(ne)]
        # whether a pair's second, reading the first's data, runs the first's (eps, R)
        one_cmd = [self.adaptive or (e_eps[e], e_rate[e]) == (e_eps[rev[e]], e_rate[rev[e]])
                   for e in range(ne)]
        # (healthy, until when) of each edge's comm channel, then each node's actuation one
        health = [(True, -1.0)] * (ne + n)
        phi_act = cfg.phi_act
        delta_act = cfg.delta_act
        adaptive = self.adaptive
        # edges with a nonzero input + nodes with a nonzero input + pending nodes
        busy = 0

        heap: list = []
        due: deque = deque()  # actuation attempts due at their push: keys only rise
        seq = 0
        # expiries at one time pop by edge key, then by push: the key rides in
        # the seq field's high bits, so that field stays unique and no two
        # entries compare their versions (an int or a link's tuple)
        key = [k << 40 for k in self.key]

        def push(time_, kind, a=0, b=0, order=0):
            nonlocal seq
            heappush(heap, (time_, kind, order | seq, a, b))
            seq += 1

        for e in range(ne):
            push(cfg.activation_time, K_EXPIRY, e, 0, key[e])
        for dt_, node_, jump_ in sorted(cfg.disturbances):
            if dt_ <= horizon:
                push(dt_, K_DISTURB, node_, jump_)

        # each record is appended to its table's last block, a bytearray
        log_parts: list = [_Rows()]
        log_rows = log_parts[-1].blocks[-1]
        closed = _Records(CLOSED)
        closed_rows = closed.blocks[-1]
        pack_row, pack_closed = log_parts[-1].struct.pack, closed.struct.pack
        rows_full, closed_full = log_parts[-1].full, closed.full
        retunes: list = []
        act_ok = act_fail = comm_ok = 0  # a trigger row is one comm attempt
        margin = np.inf  # the least (gap - floor) over each edge's consecutive triggers

        alpha, beta = cfg.alpha, cfg.beta
        eps_floor = cfg.eps_floor
        resilient = self.resilient

        def certify(gamma):
            return certified_params(gamma, alpha, beta, eps_floor)

        def fast_forward(t_now, step):
            """Run a quiescent stretch from a trigger at t_now, in grid step
            `step`, and log it, with a new `_Rows` for the heap's rows after it;
            False at the horizon.
            Every edge steps from its live expiry while before the next
            disturbance, cut before the first trigger that would leave the dead
            zone, and the heap resumes at the cut."""
            nonlocal comm_ok, margin
            live = [None] * ne
            disturb = []
            for ev in heap:
                time_, kind, _sq, a, b = ev
                if kind == K_EXPIRY:  # a link entry holds both directions' versions
                    for e, v in zip((a, rev[a]), b if type(b) is tuple else [b]):
                        if v == e_ver[e]:
                            live[e] = time_
                elif kind == K_DISTURB:
                    disturb.append(ev)
            limit = min(disturb)[0] if disturb else nextafter(t_end, np.inf)
            # every node's cache reads its current segment from here on
            x_now = [measured(i, step) for i in range(n)]
            diffs = [x_now[j] - x_now[i] for i, j in edges]
            cols, breaks = [None] * ne, []
            # the edges that can break step first, each up to the earliest break so far
            for e in sorted(range(ne), key=lambda e: not trigger(
                    diffs[e], eps_floor, e_rate[e], *e_deg[e])[0]):
                i, j = edges[e]
                d, cmd = e_deg[e], (e_eps[e], e_rate[e])
                until = min(breaks, default=limit)
                if adaptive:
                    *cols[e], broke = step_adaptive(stamps, i, j, d, self.comm_ch[e], cmd,
                                                    diffs[e], live[e], until, certify)
                else:
                    params = [(*cmd, *trigger(None, *cmd, *d)[1:])]
                    times = _cumsum_run(live[e], params[0][2] / cmd[1], until)
                    healthy = ~self.comm_ch[e].attacked(times[:-1])
                    # an edge whose diff is outside its dead zone breaks at its first healthy read
                    broke = trigger(diffs[e], *cmd, *d)[0] != 0 and healthy.any()
                    k = int(np.argmax(healthy)) if broke else healthy.size
                    cols[e] = times[:k + 1], healthy[:k], np.zeros(k, dtype=np.intp), params
                if broke:
                    breaks.append(float(cols[e][0][-1]))
            cut = min(breaks, default=limit)
            # the heap keeps its disturbances and takes every edge's next expiry
            heap[:] = disturb
            heapify(heap)
            due.clear()
            runs = []
            for e, (times, healthy, cmd, params) in enumerate(cols):
                k = int(np.searchsorted(times[:-1], cut, side="left"))
                e_ver[e] += 1
                push(float(times[k]), K_EXPIRY, e, e_ver[e], key[e])
                if not k:
                    continue
                times, healthy, cmd = times[:k], healthy[:k], cmd[:k]
                runs.append(_Run(e, times, healthy, cmd, params, None if resilient else e_diff[e],
                                 diffs[e], self.key[e]))
                comm_ok += int(np.count_nonzero(healthy))
                # fold the run's gaps into the margin, and leave its edge as its last row did
                gaps = np.diff(times) - np.array(params)[cmd[:-1], 3]
                margin = min(margin, times[0] - e_trig_t[e] - e_floor[e], gaps.min(initial=np.inf))
                e_eps[e], e_rate[e], _theta, e_floor[e] = params[cmd[-1]]
                e_trig_t[e] = t_read = float(times[-1])
                read = np.flatnonzero(healthy)
                if read.size:
                    t_read = float(times[read[-1]])
                    e_nbr_stamp[e], e_nbr_val[e] = stamps(e_j[e], t_read), x_now[e_j[e]]
                    e_diff[e] = diffs[e]
                if resilient and not healthy[-1]:
                    e_diff[e] = None  # the own cache is read with the link only
                if read.size or not resilient:
                    e_own_delay[e] = t_read - stamps(e_i[e], t_read)
                    e_nbr_delay[e] = t_read - e_nbr_stamp[e]
            if runs:
                log_parts[-1].seal()
                log_parts.extend((_Stretch(runs), _Rows()))
            return cut < limit or bool(disturb)

        while heap:
            t, kind, _sq, a, b = due.popleft() if due and due[0] < heap[0] else heappop(heap)
            if t > t_end:
                break

            if kind == K_EXPIRY:
                # a link entry fires both directions, and a lone expiry takes its
                # reverse along when that is next on the heap at t
                e, r, pair = a, rev[a], False
                if b.__class__ is tuple:
                    b, ver_r = b
                    pair = ver_r == e_ver[r]
                    if b != e_ver[e]:
                        e, b, pair = r, ver_r, False
                elif b == e_ver[e]:
                    top = heap[0]
                    pair = top[0] == t and top[1] == K_EXPIRY and top[3] == r and \
                        top[4] == e_ver[r]
                    if pair:
                        heappop(heap)
                if b != e_ver[e]:
                    continue
                if t >= g_next:
                    k = bisect_right(grid, t, k) - 1
                    g_next = grid[k + 1] if k + 1 < len(grid) else np.inf
                nxt = ended = None
                for e in (e, r) if pair else (e,):
                    i, j = e_i[e], e_j[e]
                    # a pair's second reuses the first's health on a shared channel, and
                    # its reads, gamma and command where both are healthy
                    reuse = nxt is not None and comm_h
                    if nxt is None or not one_comm[e]:
                        comm_h, until = health[e]
                        if t >= until:
                            comm_h, until = health[e] = self.comm_ch[e].health(t)
                        reuse = reuse and comm_h
                    comm_ok += comm_h
                    gap = t - e_trig_t[e] - e_floor[e]
                    if gap < margin:
                        margin = gap
                    e_trig_t[e] = t
                    if comm_h or not resilient:
                        if reuse:
                            own_stamp, own_val, nbr_stamp, nbr_val = \
                                nbr_stamp, nbr_val, own_stamp, own_val
                        else:
                            # each cache read as in `measured`, inline
                            own_stamp = s = grid[meas_jam[i].get(k, k)]
                            ts = seg_t[i]
                            m = len(ts) - 1
                            while m and ts[m] >= s:
                                m -= 1
                            own_val = seg_x[i][m] + seg_u[i][m] * (s - ts[m])
                            if comm_h:
                                nbr_stamp = s = grid[meas_jam[j].get(k, k)]
                                ts = seg_t[j]
                                m = len(ts) - 1
                                while m and ts[m] >= s:
                                    m -= 1
                                nbr_val = seg_x[j][m] + seg_u[j][m] * (s - ts[m])
                            else:
                                nbr_stamp, nbr_val = e_nbr_stamp[e], e_nbr_val[e]
                        e_nbr_stamp[e], e_nbr_val[e] = nbr_stamp, nbr_val
                        diff = nbr_val - own_val
                        e_own_delay[e] = own_delay = t - own_stamp
                        e_nbr_delay[e] = nbr_delay = t - nbr_stamp
                        if reuse and one_cmd[e]:
                            # diff is exactly the first's negated, and the rule is odd in
                            # diff and symmetric in the degrees: the first's theta and floor
                            u = -u
                        else:
                            d_i, d_j = e_deg[e]
                            if adaptive and comm_h:
                                gamma = delay_aggregate(own_delay, nbr_delay, 0.0, d_i, d_j)
                                eps_k, rate_k = certified_params(gamma, alpha, beta, eps_floor)
                            else:
                                eps_k, rate_k = cfg.edge_eps[e], cfg.edge_rate[e]
                            u, theta, floor = trigger(diff, eps_k, rate_k, d_i, d_j)
                    else:
                        diff = None
                        eps_k, rate_k = e_eps[e], e_rate[e]
                        u, theta, floor = trigger(None, eps_k, rate_k, *e_deg[e])
                    e_diff[e] = diff
                    e_floor[e], e_eps[e], e_rate[e] = floor, eps_k, rate_k
                    ueff = scaled_input(u, theta, rate_k, phi_act[i]) if adaptive and u else float(u)
                    was = e_ueff[e]
                    busy += (ueff != 0.0) - (was != 0.0)
                    e_ueff[e] = ueff
                    e_ver[e] += 1
                    # a pair's first push waits for the second's: one link entry if they agree
                    t_next = t + theta / rate_k
                    if nxt is None:
                        nxt, first = t_next, (key[e] | seq, e, e_ver[e])
                        seq += 1
                    elif t_next == nxt:
                        first = first[0], first[1], (first[2], e_ver[e])
                    else:
                        push(t_next, K_EXPIRY, e, e_ver[e], key[e])
                    if not pair or e == r:
                        heappush(heap, (nxt, K_EXPIRY, *first))
                    log_rows += pack_row(t, e, comm_h, nan if diff is None else diff, u, theta,
                                         eps_k, rate_k, floor)
                    if len(log_rows) == rows_full:
                        log_rows = log_parts[-1].seal()

                    # with nothing pending, the node's input is its out-edges' sum float
                    # for float, so an unchanged edge input leaves it as it is
                    if ueff != was or pending[i] is not None:
                        new_sum = 0.0
                        for oe in out_edges[i]:
                            new_sum += e_ueff[oe]
                        if pending[i] is not None or new_sum != seg_u[i][-1]:
                            if pending[i] is None:
                                busy += 1
                            pending[i] = new_sum
                            if e not in pend_edges[i]:
                                pend_edges[i].append(e)
                            act_ver[i] += 1
                            due.append((t, K_ACT, seq, i, act_ver[i]))
                            seq += 1

                    if not busy:
                        # a jammed resilient trigger reads nothing
                        if diff is not None and own_stamp > last_start and \
                                (not comm_h or nbr_stamp > last_start):
                            fresh.add(e)
                        if len(fresh) == ne:
                            if pair and e != r:  # a pair never straddles a stretch's start
                                heappush(heap, (nxt, K_EXPIRY, *first))
                                push(t, K_EXPIRY, r, e_ver[r], key[r])
                            ended = not fast_forward(t, k)
                            log_rows = log_parts[-1].blocks[-1]
                            break
                if ended:
                    break
                continue

            if kind == K_ACT:
                i, ver = a, b
                if ver != act_ver[i] or pending[i] is None:
                    continue
                ok, until = health[ne + i]
                if t >= until:
                    ok, until = health[ne + i] = self.act_ch[i].health(t)
                if not ok:
                    act_fail += 1
                    if adaptive:
                        # actuation-delay estimate grew; re-tune pending commands
                        for e in pend_edges[i]:
                            if e_diff[e] is None:
                                continue
                            t_hat = actuation_estimate(e_trig_t[e], t, delta_act)
                            gamma = delay_aggregate(e_own_delay[e], e_nbr_delay[e], t_hat,
                                                    *e_deg[e])
                            eps_k, rate_k = certified_params(gamma, alpha, beta, eps_floor)
                            u, theta, floor = trigger(e_diff[e], eps_k, rate_k, *e_deg[e])
                            e_floor[e], e_eps[e], e_rate[e] = floor, eps_k, rate_k
                            ueff = scaled_input(u, theta, rate_k, phi_act[i]) if u else 0.0
                            busy += (ueff != 0.0) - (e_ueff[e] != 0.0)
                            e_ueff[e] = ueff
                            e_ver[e] += 1
                            push(max(e_trig_t[e] + theta / rate_k, t), K_EXPIRY, e, e_ver[e],
                                 key[e])
                            retunes.append((e, e_trig_t[e], floor))
                        new_sum = 0.0
                        for oe in out_edges[i]:
                            new_sum += e_ueff[oe]
                        pending[i] = new_sum
                    push(t + delta_act, K_ACT, i, ver)
                    continue
                act_ok += 1
                busy += (pending[i] != 0.0) - (seg_u[i][-1] != 0.0) - 1
                slope, jump = pending[i], 0.0
                pending[i] = None
                for e in pend_edges[i]:
                    closed_rows += pack_closed(e, e_trig_t[e], e_own_delay[e], e_nbr_delay[e],
                                               t - e_trig_t[e], e_eps[e], e_rate[e])
                    if len(closed_rows) == closed_full:
                        closed_rows = closed.seal()
                pend_edges[i].clear()
            else:  # K_DISTURB
                i, slope, jump = a, seg_u[a][-1], b
            # node i's new segment, at an actuation or a disturbance
            ts, xs, us = seg_t[i], seg_x[i], seg_u[i]
            xs.append(xs[-1] + us[-1] * (t - ts[-1]) + jump)
            ts.append(t)
            us.append(slope)
            last_start = t
            fresh.clear()

        times = _record_times(cfg.record_period, horizon)
        log_parts[-1].seal()
        closed.seal()
        log = TriggerLog([p for p in log_parts if len(p)])
        n_fail = sum(map(len, meas_jam))
        stats = {"meas_ok": n * len(grid) - n_fail, "meas_fail": n_fail,
                 "act_ok": act_ok, "act_fail": act_fail,
                 "comm_ok": comm_ok, "comm_fail": len(log) - comm_ok}

        segments = [(np.frombuffer(seg_t[i]), np.frombuffer(seg_x[i]), np.frombuffer(seg_u[i]))
                    for i in range(n)]
        states = np.empty((times.size, n))
        inputs = np.empty((times.size, n))
        for i, seg in enumerate(segments):
            states[:, i], inputs[:, i] = _evaluate(*seg, times)

        mean = states.mean(axis=1, keepdims=True)
        v_series = 0.5 * ((states - mean) ** 2).sum(axis=1)
        spread = states.max(axis=1) - states.min(axis=1)
        entry, converged = _entry_time(times, spread, cfg.delta)
        return RunMetrics(
            times=times,
            states=states,
            inputs=inputs,
            v_series=v_series,
            spread_series=spread,
            delta=cfg.delta,
            entry_time=entry,
            converged=converged,
            trigger_log=log,
            closed_commands=closed,
            retunes=retunes,
            channel_stats=stats,
            directed_edges=self.edges,
            segments=segments,
            dwell_margin=float(margin),
        )
