"""Multi-layer DoS attack sequences: budgets, generation, verification.

A channel is any of: node measurement, node actuation, or the undirected
communication link of an edge. Each carries its own frequency/duration
budget and a minimum inter-attempt interval, from which a persistency
bound follows: after any failed transmission attempt, some attempt within
the bound succeeds.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import chain, count, cycle, repeat
from operator import mul
from typing import Iterable, Sequence

import numpy as np
import yaml

from .errors import AttemptSpacingError, BudgetInfeasibleError, ConfigError
from .topology import Topology

# Channel ids: ("meas", i), ("act", i), ("comm", i, j) with i < j, plus
# ("comm", j, i) when each direction of a link has its own trace; a trace
# file names them meas/i, act/i and comm/i/j
ChannelId = tuple
_CHANNEL_NAME = re.compile(r"(meas|act)/N|comm/N/N".replace("N", "(0|[1-9][0-9]*)"))

_MIN_ATTACK_LEN = 1e-6

# each budget value and its admissible range, compared against 0: the
# frequency/duration budget of De Persis & Tesi (IEEE TAC 2015) and the
# channel's attempt interval
BUDGET_RANGES = {"eta": ">=", "kappa": ">=", "tau_f": ">", "tau_d": ">", "delta_star": ">"}


def checked(value, key: str, op: str | None = None, low: float = 0.0) -> float:
    """`value` as a finite float, with `value op low` when `op` (">" or ">=") is
    given; else a ConfigError naming `key`. A bool is not a number, and a str
    is read as one: YAML reads `1e-2` as a str."""
    try:
        v = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):  # an infinite horizon never ends attack generation
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if op and not (v > low if op == ">" else v >= low):
        raise ConfigError(f"{key} must be {op} {low:g}, got {value!r}")
    return v


@dataclass(frozen=True)
class DosParams:
    """Frequency/duration budget of one channel.

    eta, kappa are the count/time offsets; tau_f, tau_d the inverse
    frequency and duration rates; delta_star the channel's minimum interval
    between consecutive transmission attempts.
    """

    eta: float
    kappa: float
    tau_f: float
    tau_d: float
    delta_star: float

    def __post_init__(self):
        for key, op in BUDGET_RANGES.items():
            object.__setattr__(self, key, checked(getattr(self, key), key, op))

    @property
    def duty_ratio(self) -> float:
        """1/tau_d + delta_star/tau_f; must be < 1 for a persistency bound."""
        return 1.0 / self.tau_d + self.delta_star / self.tau_f

    def scaled(self, intensity: float) -> "DosParams":
        """Scale attack intensity: offsets shrink, inverse rates stretch."""
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        return DosParams(
            self.eta * intensity,
            self.kappa * intensity,
            self.tau_f / intensity,
            self.tau_d / intensity,
            self.delta_star,
        )


def podf_bound(p: DosParams) -> float:
    """Worst-case delay until a successful attempt on the channel."""
    phi = p.duty_ratio
    if phi >= 1.0:
        raise BudgetInfeasibleError(
            f"duty ratio {phi:.4f} >= 1 admits no persistency bound"
        )
    return (p.kappa + (p.eta + 1.0) * p.delta_star) / (1.0 - phi)


class DosSequence:
    """Sorted, disjoint (possibly touching) half-open attack windows within
    [0, horizon), kept as one read-only array of their boundaries s_0, e_0,
    s_1, e_1, ...: t is attacked exactly when an odd number of them are <= t."""

    __slots__ = ("bounds", "horizon", "_view")

    def __init__(self, intervals, horizon: float):
        horizon = checked(horizon, "horizon")
        pairs = np.array(intervals, dtype=np.float64)
        if pairs.shape[1:] != (2,) and pairs.shape != (0,):
            raise ValueError(f"intervals must be [start, end] pairs, got shape {pairs.shape}")
        bounds = pairs.reshape(-1)
        if bounds.size:
            # in 0, s_0, e_0, ..., horizon each start and the horizon is >= the
            # value before it, and each end > its start; NaN fails both. Compared,
            # not subtracted: inf - inf and 1e308 - -1e308 warn
            ext = np.concatenate(((0.0,), bounds, (horizon,)))
            if not ((ext[1::2] >= ext[0::2]).all() and (bounds[1::2] > bounds[0::2]).all()):
                raise ValueError(f"intervals must be sorted, disjoint and within [0, {horizon}]")
        bounds.flags.writeable = False
        self.bounds = bounds
        self.horizon = horizon
        # `health` bisects this view: its items are Python floats, not numpy scalars
        self._view = memoryview(bounds)

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        """The windows as (start, end) pairs of Python floats."""
        return tuple(map(tuple, self.bounds.reshape(-1, 2).tolist()))

    def health(self, t: float) -> tuple[bool, float]:
        """Whether t lies outside every window, and the next window boundary
        after t (inf after the last one): the answer holds up to it."""
        view = self._view
        k = bisect_right(view, t)
        return not k & 1, view[k] if k < len(view) else math.inf

    def attacked(self, times) -> np.ndarray:
        """Whether each point of `times` is attacked (see `health`), in one searchsorted."""
        return np.searchsorted(self.bounds, times, "right") % 2 == 1


@dataclass
class VerifyReport:
    ok: bool
    frequency_slack: float
    duration_slack: float
    violations: list[str] = field(default_factory=list)


# --- duration budget ---------------------------------------------------
# Worst sub-windows are anchored at interval boundaries: for every pair of
# indices p <= q the attacked time cum_{q+1} - cum_p of [start_p, end_q)
# must stay within kappa + (end_q - start_p) / tau_d. A prefix minimum over
# p gives the slack in O(n) time and memory:
# kappa + min_q [(end_q / tau_d - cum_{q+1}) + min_{p<=q} (cum_p - start_p / tau_d)];
# negative means the budget is violated.

def duration_min_slack(starts, ends, kappa, tau_d):
    if starts.shape[0] == 0:
        return np.inf
    cum = np.concatenate(([0.0], np.cumsum(ends - starts)))
    a = np.minimum.accumulate(cum[:-1] - starts / tau_d)
    return float(kappa + np.min(ends / tau_d - cum[1:] + a))


# --- frequency budget --------------------------------------------------
# For every pair of off->on transition times s_p <= s_q the limit window
# (t1 = s_p, t2 -> s_q+) contains q - p + 1 transitions, which must stay
# within eta + (s_q - s_p) / tau_f. The slack is
# eta - 1 + min_q [(s_q / tau_f - q) + min_{p<=q} (p - s_p / tau_f)].

def frequency_min_slack(trans, eta, tau_f):
    n = trans.shape[0]
    if n == 0:
        return np.inf
    idx = np.arange(n, dtype=np.float64)
    a = np.minimum.accumulate(idx - trans / tau_f)
    return float(eta - 1.0 + np.min(trans / tau_f - idx + a))


# --- persistency witness -----------------------------------------------
# For each attempt that falls inside an attack window, the delay until the
# first later attempt in healthy time (-1 when none follows). healthy is a
# bool mask over attempts.

def witness_delays(attempts, healthy):
    failed = np.flatnonzero(~healthy)
    ok_times = attempts[healthy]
    if failed.size == 0:
        return np.empty(0, dtype=np.float64)
    idx = np.searchsorted(ok_times, attempts[failed], side="left")
    out = np.full(failed.size, -1.0)
    have = idx < ok_times.size
    out[have] = ok_times[idx[have]] - attempts[failed][have]
    return out


def verify_sequence(s: DosSequence, p: DosParams) -> VerifyReport:
    """Check both budget inequalities over every boundary-anchored sub-window
    of [0, horizon).

    Checking windows anchored at transition points suffices: both bound
    gaps are piecewise linear in (t1, t2) with extrema only at interval
    boundaries (unit-tested against dense grids).
    """
    starts, ends = s.bounds[0::2], s.bounds[1::2]
    tol = 1e-9
    # every window start is an off->on transition, counted by the frequency budget
    f_slack = frequency_min_slack(starts, p.eta, p.tau_f)
    d_slack = duration_min_slack(starts, ends, p.kappa, p.tau_d)
    violations = []
    if f_slack < -tol:
        violations.append(
            f"frequency bound violated: transition count exceeds "
            f"eta + dt/tau_f by {-f_slack:.6g}"
        )
    if d_slack < -tol:
        violations.append(
            f"duration bound violated: attacked time exceeds "
            f"kappa + dt/tau_d by {-d_slack:.6g}"
        )
    return VerifyReport(not violations, f_slack, d_slack, violations)


def _exponentials(rng: np.random.Generator, scales: Sequence[float], size: int):
    """Exponential draws whose means take the values of `scales` in turn.

    The k-th is scales[k % m] times the k-th `rng.standard_exponential` draw
    (m = len(scales)), which is what `rng.exponential(scales[k % m])` would
    return there, so the stream is that of one scalar call per draw. The
    draws come in blocks of `size` that double after the first.
    """
    draws = chain.from_iterable(rng.standard_exponential(size << k).tolist() for k in count())
    return map(mul, cycle(scales), draws)


def _place_windows(p: DosParams, horizon: float, gap, cap, wait: float) -> DosSequence:
    """Greedy windows within both budgets, the one placer of both generators.

    Each candidate start lies `gap()` after the last window's end, or `wait`
    + `gap()` after the start of a dropped one. It moves later as far as the
    frequency budget needs, and the window is as long as the duration budget
    and the horizon allow, capped at `cap()`. A window shorter than
    `_MIN_ATTACK_LEN` is dropped.

    A new window [t, t + L) must keep every pair (p, new) within budget:
    t >= s_p + tau_f (n - p + 1 - eta) and L <= (kappa + (t - s_p) / tau_d
    - acc_p) / (1 - 1/tau_d), acc_p being the attacked time since s_p. The
    binding p (argmax of s_p - tau_f p, argmin of cum_p - s_p / tau_d) does
    not depend on t or later windows, so each budget keeps that one anchor
    and evaluates its pair's expression there: O(1) per window. Before the
    first window both anchors sit at -inf, where neither bound binds.
    """
    podf_bound(p)  # the one duty-ratio check: BudgetInfeasibleError when >= 1
    empty = DosSequence((), horizon)  # ValueError for a non-finite horizon
    eta, kappa, tau_f, tau_d = p.eta, p.kappa, p.tau_f, p.tau_d
    denom = 1.0 - 1.0 / tau_d
    l_max = kappa / denom  # the pair (new, new)
    if eta < 1.0 or kappa <= 0.0 or l_max < _MIN_ATTACK_LEN:
        # any attack start instantly violates one of the limit inequalities,
        # or no window is long enough to keep
        return empty
    bounds = []  # s_0, e_0, s_1, e_1, ...
    n = 0  # windows placed so far
    f_idx, f_start, f_key = 0, -math.inf, -math.inf  # frequency anchor, key s_p - tau_f p
    d_start, d_acc = -math.inf, 0.0  # duration anchor, attacked time since
    t = 0.0
    while True:
        t_s = t + gap()
        if t_s >= horizon:
            break
        need = f_start + tau_f * (n - f_idx + 1 - eta)
        if need > t_s:
            if need >= horizon:
                break
            t_s = need
        # min(l_max, the anchor's pair, horizon - t_s, cap()) without the call
        length = (kappa + (t_s - d_start) / tau_d - d_acc) / denom
        if length > l_max:
            length = l_max
        if length > horizon - t_s:
            length = horizon - t_s
        c = cap()
        if length > c:
            length = c
        if length < _MIN_ATTACK_LEN:
            t = t_s + wait
            continue
        key = t_s - tau_f * n
        if key > f_key:
            f_idx, f_start, f_key = n, t_s, key
        # the new key cum_n - t_s / tau_d is lower by (t_s - d_start) / tau_d - d_acc
        if (t_s - d_start) / tau_d > d_acc:
            d_start, d_acc = t_s, length
        else:
            d_acc += length
        t = t_s + length
        bounds += (t_s, t)
        n += 1
    return DosSequence(np.array(bounds).reshape(-1, 2), horizon)


def generate_sequence(p: DosParams, horizon: float, seed: int) -> DosSequence:
    """Pseudo-random attack sequence satisfying the budget by construction.

    Candidate windows are sampled from exponential inter-arrivals and
    lengths, then each is shifted and shortened so that every
    boundary-anchored inequality stays satisfied (greedy budget enforcement).
    Deterministic in (p, horizon, seed).
    """
    # a gap (mean tau_f), then a length cap, per candidate window: about
    # 2 horizon / tau_f draws. The placer rejects a non-finite horizon first
    size = 8 + int(2.0 * horizon / p.tau_f) if 0.0 < horizon < math.inf else 8
    draw = _exponentials(np.random.default_rng(seed),
                         (p.tau_f, min(p.kappa, p.tau_d / 4.0)), size).__next__
    return _place_windows(p, horizon, draw, draw, 0.0)


def worst_case_sequence(p: DosParams, horizon: float) -> DosSequence:
    """Adversarial sequence alternating maximal windows at both budget limits.

    Each window starts as early and lasts as long as the budgets allow; when
    the duration budget is exhausted, the start waits until it refills.
    """
    return _place_windows(p, horizon, repeat(0.0).__next__, repeat(math.inf).__next__,
                          max(p.tau_d * _MIN_ATTACK_LEN, 1e-3))


@dataclass
class WitnessReport:
    max_delay: float
    bound: float
    ok: bool
    n_failed: int
    n_unresolved: int  # failed attempts with no later success in the train


def podf_witness(
    s: DosSequence, p: DosParams, attempt_times: Sequence[float]
) -> WitnessReport:
    """Scan an attempt train and report the worst observed gap to success."""
    attempts = np.asarray(attempt_times, dtype=np.float64)
    if attempts.size > 1:
        gaps = np.diff(attempts)
        if gaps.min() < p.delta_star - 1e-9:
            raise AttemptSpacingError(
                f"attempts spaced {gaps.min():.6g} < delta_star {p.delta_star:.6g}"
            )
    healthy = ~s.attacked(attempts)
    delays = witness_delays(attempts, healthy)
    unresolved = int(np.sum(delays < 0.0))
    resolved = delays[delays >= 0.0]
    max_delay = float(resolved.max()) if resolved.size else 0.0
    bound = podf_bound(p)
    return WitnessReport(
        max_delay=max_delay,
        bound=bound,
        ok=max_delay <= bound + 1e-9,
        n_failed=int(delays.size),
        n_unresolved=unresolved,
    )


@dataclass
class ChannelSet:
    """One attack sequence plus budget per channel referenced by a topology."""

    sequences: dict[ChannelId, DosSequence]
    params: dict[ChannelId, DosParams]

    def check_complete(self, topo: Topology, comm_edges: Iterable[tuple[int, int]],
                       per_direction: bool = False) -> None:
        """Require every channel `generate_channel_set` writes for these budgets,
        and no channel that names no node or link of `topo`.

        `comm_edges` lists the edges (i < j) that carry a communication budget;
        `per_direction` asks for both directions.
        """
        nodes = [(kind, i) for i in range(topo.node_count) for kind in ("meas", "act")]
        for key in nodes + [k for i, j in comm_edges for k in _comm_keys(i, j, per_direction)]:
            if key not in self.sequences:
                raise ConfigError(f"missing channel {'/'.join(map(str, key))}")
        links = {k for i, j in topo.edges for k in _comm_keys(i, j, per_direction)}
        for key in sorted(self.sequences.keys() - links - set(nodes)):
            raise ConfigError(f"channel {'/'.join(map(str, key))} names no node or link of the "
                              f"topology")

    def to_dict(self) -> dict:
        return {"/".join(str(k) for k in key): {"params": asdict(self.params[key]),
                                                "horizon": seq.horizon,
                                                "intervals": seq.bounds.reshape(-1, 2).tolist()}
                for key, seq in sorted(self.sequences.items())}

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelSet":
        sequences: dict[ChannelId, DosSequence] = {}
        params: dict[ChannelId, DosParams] = {}
        for name, entry in data.items():
            if not _CHANNEL_NAME.fullmatch(name):
                raise ValueError(f"channel {name!r} is not named meas/i, act/i or comm/i/j")
            parts = name.split("/")
            key: ChannelId = (parts[0], *(int(x) for x in parts[1:]))
            if set(entry) != {"params", "horizon", "intervals"}:
                raise ValueError(f"channel {name} needs exactly the keys params, horizon and "
                                 f"intervals, got {list(entry)}")
            params[key] = DosParams(**entry["params"])
            sequences[key] = DosSequence(entry["intervals"], entry["horizon"])
            # numpy reads a bool bound as 0.0 or 1.0; the pairs' shape is checked by now
            if bool in set(map(type, chain.from_iterable(entry["intervals"]))):
                raise ValueError(f"channel {name}: window bounds must be numbers, got a boolean")
        return cls(sequences, params)


def load_yaml(stream):
    """`yaml.safe_load`, through libyaml's CSafeLoader when PyYAML was built with it."""
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def read_channel_set(path: str) -> ChannelSet:
    """Load a trace file written by `attacks generate`: JSON when the name ends
    in `.json`, YAML otherwise. An unreadable or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh) if str(path).endswith(".json") else load_yaml(fh)
        return ChannelSet.from_dict(data)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _comm_keys(i: int, j: int, per_direction: bool) -> tuple[ChannelId, ...]:
    return (("comm", i, j), ("comm", j, i)) if per_direction else (("comm", i, j),)


def channel_seed(master_seed: int, key: ChannelId) -> int:
    """Stable per-channel seed derived from the master seed."""
    tags = {"meas": 1, "act": 2, "comm": 3}
    entropy = [master_seed, tags[key[0]], *key[1:]]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def generate_channel_set(
    topo: Topology,
    meas_params: Sequence[DosParams],
    act_params: Sequence[DosParams],
    comm_params: dict[tuple[int, int], DosParams],
    horizon: float,
    master_seed: int,
    per_direction: bool = False,
) -> ChannelSet:
    """One sequence per channel (per comm direction if `per_direction`), seeded per channel."""
    sequences: dict[ChannelId, DosSequence] = {}
    params: dict[ChannelId, DosParams] = {}
    for i in range(topo.node_count):
        for kind, p in (("meas", meas_params[i]), ("act", act_params[i])):
            key = (kind, i)
            params[key] = p
            sequences[key] = generate_sequence(p, horizon, channel_seed(master_seed, key))
    for (i, j), p in sorted(comm_params.items()):
        for key in _comm_keys(i, j, per_direction):
            params[key] = p
            sequences[key] = generate_sequence(p, horizon, channel_seed(master_seed, key))
    return ChannelSet(sequences, params)
