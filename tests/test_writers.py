"""The writers against references.

`cli._write_events_csv` writes the trigger log from one table view per part
(`TriggerLog.tables`): a quiescent stretch from its runs' columns, a list of
heap rows from those rows, each table row and each distinct time formatted
once. `cli._write_trace_csv` formats each distinct float of its block once.
The references below format every cell of every row, by iterating the log;
the outputs must be byte-identical.
`cli._write_json` must write exactly `json.dumps(data, indent=2,
sort_keys=True)` and a newline.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_engine_oracle import _quiet_prone_runs

from mgconsensus.cli import _write_events_csv, _write_json, _write_trace_csv
from mgconsensus.engine import RunMetrics, Simulation, TriggerLog, _Run, _Stretch
from mgconsensus.scenario import MODES, load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"


def reference_trace_csv(path: Path, metrics: RunMetrics, n: int) -> None:
    header = ["time"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(n)]
    lines = [",".join(header)]
    for t, row, urow in zip(metrics.times, metrics.states, metrics.inputs):
        vals = [repr(float(t))] + [repr(float(v)) for v in row]
        vals += [repr(float(v)) for v in urow]
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")


def reference_events_csv(path: Path, metrics: RunMetrics) -> None:
    lines = ["time,edge_i,edge_j,comm_healthy,diff,u,theta,eps,rate,dwell_floor"]
    for t, e, h, diff, u, theta, eps, rate, floor_ in metrics.trigger_log:
        i, j = metrics.directed_edges[e]
        lines.append(",".join([
            repr(float(t)), str(i), str(j), str(int(h)),
            "" if diff is None else repr(float(diff)),
            str(u), repr(float(theta)), repr(float(eps)), repr(float(rate)),
            repr(float(floor_)),
        ]))
    path.write_text("\n".join(lines) + "\n")


def assert_writers_match(metrics: RunMetrics, n: int, tmp: Path) -> None:
    """Both writers against their references; leaves `events.csv` and
    `trace.csv` in `tmp`."""
    for name, write, ref, args in (("events", _write_events_csv, reference_events_csv, ()),
                                   ("trace", _write_trace_csv, reference_trace_csv, (n,))):
        got, want = tmp / f"{name}.csv", tmp / f"{name}.want.csv"
        write(got, metrics, *args)
        ref(want, metrics, *args)
        assert got.read_bytes() == want.read_bytes(), name


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_quiet_prone_runs())
def test_writers_match_reference_on_random_graphs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        assert_writers_match(Simulation(cfg).run(), cfg.topology.node_count, Path(tmp))


@pytest.fixture(scope="module")
def scen():
    return load_scenario(str(SCENARIO))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [1, 2])  # the output pins cover seeds 0 and 3
def test_writers_match_reference_on_bundled_runs(scen, mode, seed, tmp_path):
    s = scen.with_mode(mode).with_seed(seed)
    channels = s.build_channels()
    for name in s.instances:
        m = Simulation(s.engine_config(name, channels)).run()
        assert any(isinstance(p, _Stretch) for p in m.trigger_log.parts)
        assert_writers_match(m, s.topology.node_count, tmp_path)


def _metrics(parts, states, inputs, edges=((0, 1), (1, 0))) -> RunMetrics:
    """A hand-built run: only what the writers read is meaningful."""
    times = np.arange(len(states)) * 0.5
    return RunMetrics(
        times=times, states=np.array(states, dtype=float), inputs=np.array(inputs, dtype=float),
        v_series=np.zeros(times.size), spread_series=np.zeros(times.size), delta=1.0,
        entry_time=None, converged=False, trigger_log=TriggerLog(parts), closed_commands=[],
        retunes=[], channel_stats={}, directed_edges=list(edges), segments=[])


def _stretch(runs, resilient):
    return _Stretch([_Run(e, (1, 1), np.array(ts), np.array(hs), eps, rate, before, after, q)
                     for e, ts, hs, eps, rate, before, after, q in runs], resilient)


def test_writers_keep_negative_zero(tmp_path):
    # edge 0's heap rows alternate 0.0 and -0.0 diffs with the rest equal;
    # a nominal stretch holds -0.0 before its first healthy read, 0.0 after
    heap = [(0.1, 0, True, 0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.2, 0, True, -0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.3, 0, True, 0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.3, 1, False, -0.0, 0, 0.25, 1.0, 1.0, 0.25)]
    stretch = _stretch([(0, [0.5, 0.75, 1.0], [False, True, True], 1.0, 1.0, -0.0, 0.0, 1),
                        (1, [0.5, 1.0, 1.5], [False, False, True], 1.0, 1.0, -0.0, -0.0, 0)],
                       resilient=False)
    m = _metrics([heap, stretch, list(heap)], [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]],
                 [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    assert_writers_match(m, 2, tmp_path)
    diffs = [line.split(",")[4] for line in (tmp_path / "events.csv").read_text().splitlines()]
    assert diffs[1:11] == ["0.0", "-0.0", "0.0", "-0.0", "-0.0", "-0.0", "0.0", "-0.0", "0.0",
                           "-0.0"]
    assert (tmp_path / "trace.csv").read_text().splitlines()[1:3] == \
        ["0.0,0.0,-0.0,-0.0,0.0", "0.5,-0.0,0.0,0.0,-0.0"]


def test_writers_leave_a_jammed_resilient_diff_empty(tmp_path):
    heap = [(0.1, 1, False, None, 0, 0.25, 1.0, 1.0, 0.25)]
    eps = np.array([1.0, 1.0, 0.5, 0.5])
    rate = np.array([1.0, 1.0, 0.75, 0.75])
    stretch = _stretch([(0, [0.5, 0.75, 1.0, 1.25], [True, False, True, False], eps, rate,
                         None, 0.125, 0),
                        (1, [0.75, 1.25], [False, True], 1.0, 1.0, None, 0.125, 1)],
                       resilient=True)
    m = _metrics([heap, stretch], [[0.0, 1.0]], [[0.0, 0.0]])
    assert_writers_match(m, 2, tmp_path)
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert lines[1] == "0.1,1,0,0,,0,0.25,1.0,1.0,0.25"
    # heap order: e0 0.5, e1 0.75, e0 0.75, e0 1.0, e1 1.25, e0 1.25
    assert [line.split(",")[4] for line in lines[2:]] == ["0.125", "", "", "0.125", "0.125", ""]


def assert_json_matches_stdlib(data, path: Path) -> None:
    _write_json(path, data)
    assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


_numbers = st.none() | st.booleans() | st.integers() | st.floats()  # NaN and ±inf too
_leaves = _numbers | st.text()
_json_trees = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(_numbers, max_size=6)
                   | st.lists(st.lists(_numbers, max_size=3), max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(-5, 5), inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(data=_json_trees)
def test_json_writer_matches_stdlib_on_random_trees(data):
    with tempfile.TemporaryDirectory() as tmp:
        assert_json_matches_stdlib(data, Path(tmp) / "out.json")


@pytest.mark.parametrize("data", [
    {1: {2: 3.5}, 10: [1, 2], -1: "a"},  # int keys sort as ints
    {"1.5": 0, "b": {False: [], True: {}}},
    [-0.0, 0.0, float("nan"), float("inf"), -float("inf")],
    {"w": [[-0.0, float("nan")], [float("inf"), -float("inf")]]},
    {}, [], {"a": {}, "b": [], "c": [[]], "d": [[], [1.0]], "e": [[1.0], []]},
    {"ragged": [[1.0], [2.0, 3.0, 4.0], [5]], "mixed": [[1, "x"], [2.0]], "deep": [[[1.0]]]},
    {"n": [[1.0, None, True], [False, 2]], "row": [1, [2, 3], {"k": 4}]},
    ((1.0, 2.0), (3.0, (4.0,))), {"t": ((0.5, 1.5), [2.5, 3.5])},
    {"f": np.float64(0.1), "l": [np.float64(1e-300), 2], "w": [[np.float64(-0.0), 1.0]]},
    {"é": "ünïcode ☃", "s": ["[", "]", ",\n", "],\n      [", "\u0000"], "k]": "v[,\n"},
    [["[", "]"], ["],\n  ["]],
], ids=["int-keys", "scalar-keys", "special-floats", "special-float-rows", "empty-dict",
        "empty-list", "empty-containers", "ragged-rows", "null-and-bool-rows", "tuples",
        "tuple-rows", "numpy-floats", "non-ascii-and-brackets", "string-rows"])
def test_json_writer_matches_stdlib(data, tmp_path):
    assert_json_matches_stdlib(data, tmp_path / "out.json")


@pytest.mark.parametrize("data", [{(1, 2): 0}, {"a": {1, 2}}, [object()], {1: 0, "a": 1}])
def test_json_writer_rejects_what_json_rejects(data, tmp_path):
    with pytest.raises(TypeError):
        json.dumps(data, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _write_json(tmp_path / "out.json", data)
