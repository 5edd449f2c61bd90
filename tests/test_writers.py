"""The writers against references.

`cli._write_events_csv` writes the trigger log from each part's blocks of
(times, tails, codes) (`table()`): a quiescent stretch from its runs' distinct
rows (`_Run.tails`), a heap part (`_Rows`) from its packed records, each tail
record and each distinct time of a block formatted once. `_heap` and
`_stretch` build parts by hand: heap rows as `ROW` records, and runs with per
row a time, a comm health and an index into the run's commands, rows of
(eps, rate, theta, floor).
`cli._write_trace_csv` formats each distinct float of its block once.
The references below format every cell of every row: of the rows a test
wrote by hand, or of a simulated run's log as iterated. The outputs must be
byte-identical.
`cli._write_json` must write exactly `json.dumps(data, indent=2,
sort_keys=True)` and a newline.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_engine_oracle import _quiet_prone_runs

from mgconsensus.cli import _write_events_csv, _write_json, _write_trace_csv
from mgconsensus.engine import (
    BLOCK, CLOSED, ROW, RunMetrics, Simulation, TriggerLog, _Records, _Rows, _Run, _Stretch,
)
from mgconsensus.scenario import MODES, load_scenario, parse_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"


def reference_trace_csv(path: Path, metrics: RunMetrics, n: int) -> None:
    header = ["time"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(n)]
    lines = [",".join(header)]
    for t, row, urow in zip(metrics.times, metrics.states, metrics.inputs):
        vals = [repr(float(t))] + [repr(float(v)) for v in row]
        vals += [repr(float(v)) for v in urow]
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")


def reference_events_csv(path: Path, rows, directed_edges: list) -> None:
    lines = ["time,edge_i,edge_j,comm_healthy,diff,u,theta,eps,rate,dwell_floor"]
    for t, e, h, diff, u, theta, eps, rate, floor_ in rows:
        i, j = directed_edges[e]
        lines.append(",".join([
            repr(float(t)), str(i), str(j), str(int(h)),
            "" if diff is None else repr(float(diff)),
            str(u), repr(float(theta)), repr(float(eps)), repr(float(rate)),
            repr(float(floor_)),
        ]))
    path.write_text("\n".join(lines) + "\n")


def assert_writers_match(metrics: RunMetrics, n: int, tmp: Path, rows=None) -> None:
    """Both writers against their references, the events CSV against `rows`
    (by default the log's rows as iterated); leaves `events.csv` and
    `trace.csv` in `tmp`."""
    rows = metrics.trigger_log if rows is None else rows
    outputs = (("events", lambda p: _write_events_csv(p, metrics),
                lambda p: reference_events_csv(p, rows, metrics.directed_edges)),
               ("trace", lambda p: _write_trace_csv(p, metrics, n),
                lambda p: reference_trace_csv(p, metrics, n)))
    for name, write, ref in outputs:
        got, want = tmp / f"{name}.csv", tmp / f"{name}.want.csv"
        write(got)
        ref(want)
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
        retunes=[], channel_stats={}, directed_edges=list(edges), segments=[],
        dwell_margin=np.inf)


def _heap(rows):
    """A heap part of the rows (t, edge, comm_healthy, diff, u, theta, eps,
    rate, dwell_floor), a None diff stored as NaN, all appended before any
    read, in blocks of BLOCK records as the engine keeps them."""
    part, size = _Rows(), BLOCK * ROW.itemsize
    data = np.array([(t, e, h, np.nan if d is None else d, *rest)
                     for t, e, h, d, *rest in rows], ROW).tobytes()
    part.blocks = [data[a:a + size] for a in range(0, len(data), size)]
    return part


def _stretch(runs):
    """A stretch of hand-built runs (edge, times, health, commands, their
    (eps, rate), before, after, key) on degrees (1, 1); a resilient run has no
    `before`. Each command's row adds its theta eps / 4 and floor eps / (4 rate)."""
    return _Stretch([_Run(e, np.array(ts), np.array(hs), np.array(cmd, dtype=np.intp),
                          [(eps, rate, eps / 4.0, eps / (4.0 * rate)) for eps, rate in params],
                          before, after, key)
                     for e, ts, hs, cmd, params, before, after, key in runs])


def test_writers_keep_negative_zero(tmp_path):
    # edge 0's heap rows alternate 0.0 and -0.0 diffs with the rest equal;
    # a nominal stretch holds -0.0 before its first healthy read, 0.0 after
    heap = [(0.1, 0, True, 0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.2, 0, True, -0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.3, 0, True, 0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.3, 1, False, -0.0, 0, 0.25, 1.0, 1.0, 0.25)]
    stretch = _stretch([(0, [0.5, 0.75, 1.0], [False, True, True], [0, 0, 0], [(1.0, 1.0)],
                         -0.0, 0.0, 0),
                        (1, [0.5, 1.0, 1.5], [False, False, True], [0, 0, 0], [(1.0, 1.0)],
                         -0.0, -0.0, 1)])
    # the stretch's rows in heap order, by (time, key) (see test_stretch_order.py)
    rows = [(0.5, 0, False, -0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.5, 1, False, -0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (0.75, 0, True, 0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (1.0, 0, True, 0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (1.0, 1, False, -0.0, 0, 0.25, 1.0, 1.0, 0.25),
            (1.5, 1, True, -0.0, 0, 0.25, 1.0, 1.0, 0.25)]
    m = _metrics([_heap(heap), stretch, _heap(heap)], [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]],
                 [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    assert list(m.trigger_log) == heap + rows + heap
    assert_writers_match(m, 2, tmp_path, heap + rows + heap)
    diffs = [line.split(",")[4] for line in (tmp_path / "events.csv").read_text().splitlines()]
    assert diffs[1:11] == ["0.0", "-0.0", "0.0", "-0.0", "-0.0", "-0.0", "0.0", "0.0", "-0.0",
                           "-0.0"]
    assert (tmp_path / "trace.csv").read_text().splitlines()[1:3] == \
        ["0.0,0.0,-0.0,-0.0,0.0", "0.5,-0.0,0.0,0.0,-0.0"]


def test_writers_leave_a_jammed_resilient_diff_empty(tmp_path):
    heap = [(0.1, 1, False, None, 0, 0.25, 1.0, 1.0, 0.25)]
    # edge 0 is re-tuned from (1.0, 1.0) to (0.5, 0.75) at its third row
    stretch = _stretch([(0, [0.5, 0.75, 1.0, 1.25], [True, False, True, False], [0, 0, 1, 1],
                         [(1.0, 1.0), (0.5, 0.75)], None, 0.125, 0),
                        (1, [0.75, 1.25], [False, True], [0, 0], [(1.0, 1.0)], None, 0.125, 1)])
    rows = [(0.5, 0, True, 0.125, 0, 0.25, 1.0, 1.0, 0.25),
            (0.75, 0, False, None, 0, 0.25, 1.0, 1.0, 0.25),
            (0.75, 1, False, None, 0, 0.25, 1.0, 1.0, 0.25),
            (1.0, 0, True, 0.125, 0, 0.125, 0.5, 0.75, 0.5 / 3.0),
            (1.25, 0, False, None, 0, 0.125, 0.5, 0.75, 0.5 / 3.0),
            (1.25, 1, True, 0.125, 0, 0.25, 1.0, 1.0, 0.25)]
    m = _metrics([_heap(heap), stretch], [[0.0, 1.0]], [[0.0, 0.0]])
    assert list(m.trigger_log) == heap + rows
    assert_writers_match(m, 2, tmp_path, heap + rows)
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert lines[1] == "0.1,1,0,0,,0,0.25,1.0,1.0,0.25"
    # heap order: e0 0.5, e0 0.75, e1 0.75, e0 1.0, e0 1.25, e1 1.25
    assert [line.split(",")[4] for line in lines[2:]] == ["0.125", "", "", "0.125", "", "0.125"]


def test_writers_cross_a_block_boundary_in_a_heap_part(tmp_path):
    # more than BLOCK heap rows, three to a time, so that rows 4,095-4,097 share
    # one time across the first block's end; diffs cycle through None, -0.0 and
    # distinct values, u through -1, 0 and 1
    rows = [(0.001 * (k // 3), k % 2, k % 3 != 0, [None, -0.0, 0.1 * k][k % 3], k % 3 - 1,
             0.25, 1.0, 1.0, 0.25) for k in range(BLOCK + 904)]
    part = _heap(rows)
    assert [times.size for times, _tails, _codes in part.table()] == [BLOCK, 904]
    m = _metrics([part], [[0.0, 1.0]], [[0.0, 0.0]])
    assert list(m.trigger_log) == rows
    assert_writers_match(m, 2, tmp_path, rows)
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert len(lines) == len(rows) + 1
    assert [line.split(",")[0] for line in lines[BLOCK:BLOCK + 3]] == [repr(0.001 * 1365)] * 3


def test_packed_records_read_back_exactly(tmp_path):
    # each Struct is its dtype's layout, and rows packed as the engine packs
    # them read back exactly through the log's iteration and the events CSV: a
    # None diff (stored as NaN), a -0.0 diff, u = -1 and an edge past 16 bits
    for dtype in (ROW, CLOSED):
        assert _Records(dtype).struct.size == dtype.itemsize
    e = 2 ** 20
    rows = [(0.5, e, False, None, 0, 0.25, 1.0, 1.0, 0.25),
            (0.75, e, True, -0.0, -1, 0.125, 0.5, 0.75, 0.5 / 3.0),
            (1.0, 0, True, -2.5, -1, 0.625, 1.0, 1.0, 0.25)]
    part = _Rows()
    for t, edge, h, diff, *rest in rows:
        part.blocks[-1] += part.struct.pack(t, edge, h, np.nan if diff is None else diff, *rest)
    part.seal()
    m = _metrics([part], [[0.0, 1.0]], [[0.0, 0.0]], [(0, 1)] * e + [(3, 5)])
    got = list(m.trigger_log)
    assert got == rows
    assert [type(v) for v in got[0]] == [float, int, bool, type(None), int, float, float, float,
                                         float]
    assert str(got[1][3]) == "-0.0"
    assert_writers_match(m, 2, tmp_path, rows)
    assert (tmp_path / "events.csv").read_text().splitlines()[1:3] == [
        "0.5,3,5,0,,0,0.25,1.0,1.0,0.25", "0.75,3,5,1,-0.0,-1,0.125,0.5,0.75,0.16666666666666666"]
    closed = (e, 0.5, 0.125, -0.0, 0.25, 1.0, 2.0)
    assert np.frombuffer(_Records(CLOSED).struct.pack(*closed), CLOSED).tolist() == [closed]


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


@pytest.mark.parametrize("mode", ["resilient-global", "resilient-local"])
def test_certificate_json_is_stdlib_text_on_12_nodes(mode, tmp_path):
    # node ids 10 and 11 key the per-node maps: as text they sort before 2, as a
    # parse and re-dump of the file sorts them
    n = 12
    data = yaml.safe_load(SCENARIO.read_text())
    del data["mgs"]
    data["topology"]["adjacency"] = [[int((j - i) % n in (1, n - 1)) for j in range(n)]
                                     for i in range(n)]
    data["instances"] = {"frequency": {"initial": [50.0 + 0.01 * i for i in range(n)]}}
    path = tmp_path / "certificate.json"
    _write_json(path, parse_scenario(data).with_mode(mode).certificate())
    text = path.read_text()
    assert '"11": ' in text
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("data", [{(1, 2): 0}, {"a": {1, 2}}, [object()], {1: 0, "a": 1}])
def test_json_writer_rejects_what_json_rejects(data, tmp_path):
    with pytest.raises(TypeError):
        json.dumps(data, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _write_json(tmp_path / "out.json", data)
