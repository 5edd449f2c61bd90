"""The order of a quiescent stretch's rows against a replay of the event heap.

`_Stretch._merged` orders the rows of a stretch by one sort, ties that inherit
an earlier tie's order, and a pass over the other ties. `_replay_order`, the
heap replay that `_merged` replaced, is the reference: it replays the heap on
the runs' times alone, one pop per row. Both must give the same positions and
the same order of the runs' last rows, which is the order the engine hands the
runs' next expiries back to the heap in.

Periods and start times are dyadic, so equal times are exact ties.
"""

from array import array
from heapq import heapify, heapreplace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgconsensus.engine import Simulation, _Run, _Stretch
from mgconsensus.scenario import MODES, load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"


def _replay_order(runs):
    """Replay the heap on the runs: pop the earliest (time, push) and push that
    run's next row with the pop's position; the first rows were pushed before
    the stretch, in the order of q. Gives the rows' positions in the runs'
    concatenation, in heap order, and the runs in the order their last rows
    pop: after its last row a run pushes an infinite time, so those entries end
    in that order."""
    nexts = [iter(r.times.tolist() + [np.inf]).__next__ for r in runs]
    low = max((r.q for r in runs), default=0) + 1
    heap = [(nxt(), r.q - low, n) for n, (r, nxt) in enumerate(zip(runs, nexts))]
    heapify(heap)
    popped = array("q")                      # the run of each row, in heap order
    for pos in range(sum(r.times.size for r in runs)):
        n = heap[0][2]
        popped.append(n)
        heapreplace(heap, (nexts[n](), pos, n))
    # a run's k-th pop is its k-th row
    order = np.empty(len(popped), dtype=np.intp)
    order[np.argsort(np.frombuffer(popped, dtype=np.int64), kind="stable")] = \
        np.arange(len(popped))
    return order, [n for _t, _pos, n in sorted(heap)]


def _stretch(runs):
    """A stretch of runs given as (start, steps, q): the times start, start +
    steps[0], ... by repeated addition. Only times and q order the rows."""
    built = []
    for e, (t, steps, q) in enumerate(runs):
        times = [t]
        for step in steps:
            times.append(times[-1] + step)
        built.append(_Run(e, (1, 1), np.array(times), np.ones(len(times), dtype=bool),
                          np.zeros(len(times), dtype=np.intp), [(1.0, 1.0)], 0.0, 0.0, q))
    return _Stretch(built)


def assert_merge_matches_replay(stretch):
    order, last = stretch._merged
    want_order, want_last = _replay_order(stretch.runs)
    assert order.tolist() == want_order.tolist()
    assert last == want_last


@st.composite
def _runs(draw):
    """Up to 7 runs on a grid of quarters. A run may follow an earlier one for
    some steps from its start (lockstep) and leave it; q is in random order,
    with gaps, as the ranks of live expiries are when some edge has no row."""
    count = draw(st.integers(1, 7))
    qs = draw(st.permutations(range(count + 2)))[:count]
    quarters = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    runs = []
    for q in qs:
        t0 = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        steps = draw(st.lists(quarters, max_size=10))
        if runs and draw(st.booleans()):
            t0, lead, _q = draw(st.sampled_from(runs))
            steps = lead[:draw(st.integers(0, len(lead)))] + steps
        runs.append((t0, steps, q))
    return runs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(runs=_runs())
def test_merge_matches_the_heap_replay(runs):
    assert_merge_matches_replay(_stretch(runs))


@pytest.mark.parametrize("runs", [
    # a tie of 2 whose previous rows lie in a group of 3, where their order
    # there is not that of q
    [(0.0, [1.0, 1.0], 2), (0.5, [0.5, 1.0], 0), (0.75, [0.25, 1.5], 1)],
    # two runs joining lockstep, in an order that is not that of q
    [(0.0, [1.0, 1.0, 1.0], 1), (0.5, [0.5, 1.0, 1.0], 0)],
    # a tie of 3 after three ties of 1, then a tie of 2 after that tie of 3: the
    # second is sorted by ranks the first set
    [(0.0, [1.0, 1.0, 1.0], 3), (0.25, [0.75, 1.0, 0.5], 0), (0.5, [0.5, 1.0, 1.0], 1),
     (0.75, [0.25, 1.5], 2)],
    # three runs in lockstep from one instant, then two of them on
    [(0.0, [1.0, 1.0, 0.5], 1), (0.0, [1.0, 1.0, 0.25], 2), (0.0, [1.0, 0.5, 0.75], 0)],
    # periods 1 and 2 from one instant: every shared time is a group of 2 whose
    # previous rows lie at two times
    [(0.0, [1.0] * 40, 1), (0.0, [2.0] * 20, 0)],
    # periods 1, 1 and 2 from one instant: every time holds two rows in
    # lockstep, and every even time a third after an earlier time
    [(0.0, [1.0] * 40, 2), (0.0, [1.0] * 40, 0), (0.0, [2.0] * 20, 1)],
    # one-row runs, alone and tied
    [(0.5, [], 3), (0.5, [], 1), (0.0, [0.5], 2), (1.0, [], 0)],
], ids=["two-after-three", "join-lockstep", "sorted-by-set-ranks", "lockstep-then-split",
        "p-2p", "p-p-2p", "one-row-runs"])
def test_merge_matches_the_heap_replay_on_tie_patterns(runs):
    assert_merge_matches_replay(_stretch(runs))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [1, 2])
def test_merge_matches_the_heap_replay_on_bundled_runs(mode, seed):
    s = load_scenario(str(SCENARIO)).with_mode(mode).with_seed(seed)
    channels = s.build_channels()
    stretches = [part for name in s.instances
                 for part in Simulation(s.engine_config(name, channels)).run().trigger_log.parts
                 if isinstance(part, _Stretch)]
    assert stretches
    for stretch in stretches:
        assert_merge_matches_replay(stretch)
