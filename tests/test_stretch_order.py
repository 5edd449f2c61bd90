"""The order of a run's trigger rows at one time.

Each edge runs its own clock, so expiries at one time pop by the edge's key
(`Simulation.key`): by link, as `Topology.edges` lists the links, the lower
node's direction first. `_heap_pops` is the reference for a quiescent stretch:
it replays the event heap on the runs' times and keys alone, one pop per row,
and `_Stretch.table()` must give the rows in its order. A whole run's log,
heap rows and stretches alike, must be strictly ordered by (time, key).

Periods and start times are dyadic, so equal times are exact ties.
"""

from heapq import heapify, heapreplace
from pathlib import Path

import conftest
import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mgconsensus.engine import Simulation, _Run, _Stretch
from mgconsensus.scenario import MODES, load_scenario, parse_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"


def _heap_pops(runs) -> list:
    """Replay the heap on the runs: pop the earliest (time, key) and push that
    run's next row. Gives the rows as (time, edge), in pop order."""
    nexts = [iter(r.times.tolist() + [np.inf]).__next__ for r in runs]
    heap = [(nxt(), r.key, r.edge, nxt) for r, nxt in zip(runs, nexts)]
    heapify(heap)
    popped = []
    for _ in range(sum(r.times.size for r in runs)):
        t, key, edge, nxt = heap[0]
        popped.append((t, edge))
        heapreplace(heap, (nxt(), key, edge, nxt))
    return popped


def _table_rows(stretch) -> list:
    """The stretch's rows as (time, edge), in `table()` order."""
    return [row for times, tails, codes in stretch.table()
            for row in zip(times.tolist(), tails["edge"][codes].tolist())]


def _stretch(runs):
    """A stretch of runs given as (start, steps, key): the times start, start +
    steps[0], ... by repeated addition. Only times and keys order the rows."""
    built = []
    for e, (t, steps, key) in enumerate(runs):
        times = [t]
        for step in steps:
            times.append(times[-1] + step)
        built.append(_Run(e, np.array(times), np.ones(len(times), dtype=bool),
                          np.zeros(len(times), dtype=np.intp), [(1.0, 1.0, 0.25, 0.25)], 0.0, 0.0,
                          key))
    return _Stretch(built)


def assert_merge_matches_replay(stretch):
    assert _table_rows(stretch) == _heap_pops(stretch.runs)


def assert_log_ordered_by_key(m, key):
    """Every row of the run's log after the one before it in (time, key)."""
    times, keys = [np.zeros(0)], [np.zeros(0, np.intp)]
    for ts, tails, codes in m.trigger_log.blocks():
        times.append(ts)
        keys.append(np.asarray(key)[tails["edge"][codes]])
    dt, dk = np.diff(np.concatenate(times)), np.diff(np.concatenate(keys))
    bad = np.flatnonzero((dt < 0) | ((dt == 0) & (dk <= 0)))
    assert len(m.trigger_log) > 1000 and not bad.size, bad[:5]


@st.composite
def _runs(draw):
    """Up to 7 runs on a grid of quarters. A run may follow an earlier one for
    some steps from its start (lockstep) and leave it; the keys are in random
    order, with gaps, as the keys of the edges with rows are."""
    count = draw(st.integers(1, 7))
    keys = draw(st.permutations(range(count + 2)))[:count]
    quarters = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    runs = []
    for key in keys:
        t0 = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        steps = draw(st.lists(quarters, max_size=10))
        if runs and draw(st.booleans()):
            t0, lead, _key = draw(st.sampled_from(runs))
            steps = lead[:draw(st.integers(0, len(lead)))] + steps
        runs.append((t0, steps, key))
    return runs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(runs=_runs())
def test_merge_matches_the_heap_replay(runs):
    assert_merge_matches_replay(_stretch(runs))


@pytest.mark.parametrize("runs", [
    # a tie of 2 whose previous rows lie in a group of 3, keyed against their
    # start order
    [(0.0, [1.0, 1.0], 2), (0.5, [0.5, 1.0], 0), (0.75, [0.25, 1.5], 1)],
    # two runs joining lockstep, the later one keyed first
    [(0.0, [1.0, 1.0, 1.0], 1), (0.5, [0.5, 1.0, 1.0], 0)],
    # a tie of 3 after three ties of 1, then a tie of 2 after that tie of 3
    [(0.0, [1.0, 1.0, 1.0], 3), (0.25, [0.75, 1.0, 0.5], 0), (0.5, [0.5, 1.0, 1.0], 1),
     (0.75, [0.25, 1.5], 2)],
    # three runs in lockstep from one instant, then two of them on
    [(0.0, [1.0, 1.0, 0.5], 1), (0.0, [1.0, 1.0, 0.25], 2), (0.0, [1.0, 0.5, 0.75], 0)],
    # periods 1 and 2 from one instant: every shared time is a group of 2
    [(0.0, [1.0] * 40, 1), (0.0, [2.0] * 20, 0)],
    # periods 1, 1 and 2 from one instant: every time holds two rows in
    # lockstep, and every even time a third
    [(0.0, [1.0] * 40, 2), (0.0, [1.0] * 40, 0), (0.0, [2.0] * 20, 1)],
    # one-row runs, alone and tied
    [(0.5, [], 3), (0.5, [], 1), (0.0, [0.5], 2), (1.0, [], 0)],
], ids=["two-after-three", "join-lockstep", "sorted-by-set-ranks", "lockstep-then-split",
        "p-2p", "p-p-2p", "one-row-runs"])
def test_merge_matches_the_heap_replay_on_tie_patterns(runs):
    assert_merge_matches_replay(_stretch(runs))


def test_a_run_joining_and_leaving_a_lockstep_pair_is_ordered_by_key():
    # periods 1, 1 and 1, 1, 1/2, 1/2 from one instant: the third run joins
    # and leaves the pair every 4 steps, 60,003 rows with two ties of 3 every
    # 3 time units. The keys go against the runs' order
    stretch = _stretch([(0.0, [1.0] * 20000, 2), (0.0, [1.0] * 20000, 0),
                        (0.0, [1.0, 1.0, 0.5, 0.5] * 5000, 1)])
    rows = _table_rows(stretch)
    key = [r.key for r in stretch.runs]
    assert len(rows) == 60003
    assert all((t, key[e]) < (u, key[f]) for (t, e), (u, f) in zip(rows, rows[1:]))
    assert rows == _heap_pops(stretch.runs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [1, 2])
def test_merge_matches_the_heap_replay_on_bundled_runs(mode, seed):
    s = load_scenario(str(SCENARIO)).with_mode(mode).with_seed(seed)
    channels = s.build_channels()
    stretches = 0
    for name in s.instances:
        sim = Simulation(s.engine_config(name, channels))
        m = sim.run()
        assert_log_ordered_by_key(m, sim.key)
        for part in m.trigger_log.parts:
            if isinstance(part, _Stretch):
                assert_merge_matches_replay(part)
                stretches += 1
    assert stretches


def _ring16() -> dict:
    """The bundled scenario on a 16-node ring with a comm channel per
    direction, x0 spread over 2.5 delta."""
    n = 16
    data = yaml.safe_load(SCENARIO.read_text())
    del data["mgs"]
    data["horizon"] = 12.0
    data["channels"]["per_direction_comm"] = True
    data["topology"]["adjacency"] = [[int((j - i) % n in (1, n - 1)) for j in range(n)]
                                     for i in range(n)]
    data["instances"] = {"frequency": {"initial": [50.0 + 0.25 * ((7 * i) % n - n / 2)
                                                   for i in range(n)]}}
    return data


@pytest.mark.parametrize("name,mode", [
    ("ring64", "self-adaptive"), ("ring16-per-direction", "self-adaptive"),
    ("ring16-per-direction", "resilient-local"),
])
def test_ring_logs_are_ordered_by_key(name, mode):
    data = conftest.ring64_data() if name == "ring64" else _ring16()
    s = parse_scenario(data).with_mode(mode)
    sim = Simulation(s.engine_config("frequency", s.build_channels()))
    assert_log_ordered_by_key(sim.run(), sim.key)
