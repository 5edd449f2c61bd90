"""The self-adaptive stretch stepper against the per-row loop it replaced.

`step_adaptive` steps an edge's gamma recurrence one row at a time only while
its adapted command changes, and in numpy blocks once two healthy rows in a
row keep it. `_step_rows`, the loop that stepped every row, is the reference:
both must give the same columns, command rows and break, and call `certify` on
the same gammas in the same order. The reference walks each cache stamp back
from the measurement channels, so a wrong jam map in `_Stamps` shows.

The synthetic edges run on a dyadic grid with dyadic periods, so gammas
recur exactly and a known gamma can map to another command inside a block.
Their `certify` maps a gamma to one of a few commands by a hash, one of which
may not cover the diff.
"""

from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgconsensus import engine
from mgconsensus.attacks import DosSequence
from mgconsensus.controller import delay_aggregate
from mgconsensus.design import certified_params
from mgconsensus.engine import Simulation, _Stamps, step_adaptive
from mgconsensus.scenario import load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"
HORIZON = 32.0
DELTA = 0.125


class _ChannelStamps(_Stamps):
    """`_Stamps` that keeps its nodes' measurement channels, so that the
    reference derives each stamp from them, not from the engine's jam maps."""

    def __init__(self, delta, horizon, channels):
        super().__init__(delta, horizon, channels)
        self.channels = list(channels)


def _step_rows(stamps, i, j, degs, link, cmd, diff, t, until, certify):
    """`step_adaptive` one row at a time."""
    health = link.health
    grid = stamps.grid
    d_i, d_j = degs

    def stamp(node, k):
        """The latest grid point <= grid[k] healthy for node, or 0."""
        while k and not stamps.channels[node].health(grid[k])[0]:
            k -= 1
        return grid[k]

    # a command's row inside the dead zone: (eps, rate, theta, floor), with
    # theta = eps / (2 (d_i + d_j)) and floor = eps / (2 rate (d_i + d_j)); its
    # clock period is theta over its rate
    def row(eps, rate):
        return eps, rate, eps / (2.0 * (d_i + d_j)), eps / (2.0 * rate * (d_i + d_j))

    cmds = {cmd: 0}
    params = [row(*cmd)]
    periods = [cmd[0] / (2.0 * (d_i + d_j)) / cmd[1]]
    rule: dict = {}
    ts, hs, cs = [], [], []
    c = 0
    while t < until:
        healthy = health(t)[0]
        if healthy:
            k = bisect_right(grid, t) - 1
            gamma = delay_aggregate(t - stamp(i, k), t - stamp(j, k), 0.0, d_i, d_j)
            c = rule.get(gamma)
            if c is None:
                eps_n, rate_n = certify(gamma)
                # an eps that leaves |diff| outside the closed dead zone breaks
                c = rule[gamma] = -1 if abs(diff) >= eps_n else \
                    cmds.setdefault((eps_n, rate_n), len(cmds))
                if c == len(periods):
                    params.append(row(eps_n, rate_n))
                    periods.append(eps_n / (2.0 * (d_i + d_j)) / rate_n)
            if c < 0:
                break
        ts.append(t)
        hs.append(healthy)
        cs.append(c)
        t = t + periods[c]
    ts.append(t)
    return np.array(ts), np.array(hs, dtype=bool), np.array(cs, dtype=np.intp), params, c < 0


def _recording(certify):
    """`certify`, and the list of the gammas it is called on."""
    calls = []

    def wrapped(gamma):
        calls.append(gamma)
        return certify(gamma)
    return wrapped, calls


def assert_steps_match_rows(*args):
    """`step_adaptive` and `_step_rows` give the same result on `args`, and
    call `certify`, the last of them, on the same gammas in the same order.
    Returns the result."""
    *head, certify = args
    got_certify, got_calls = _recording(certify)
    want_certify, want_calls = _recording(certify)
    got = step_adaptive(*head, got_certify)
    want = _step_rows(*head, want_certify)
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()
    assert got[3:] == want[3:]
    assert got_calls == want_calls
    return got


def _hashed(cmds, salt):
    """A certify that maps a gamma to cmds[0] mostly, else to another of cmds."""
    def certify(gamma):
        h = hash((gamma, salt)) % 100
        return cmds[0] if h < 80 else cmds[1 + h % (len(cmds) - 1)]
    return certify


def _seq(windows):
    return DosSequence(tuple(windows), HORIZON)


# (eps, rate) with dyadic periods eps / (4 rate) on degrees (1, 1): 1/8, 3/32,
# 3/64 and 5/32; (0.25, 1.0) does not cover a diff of 0.3
DYADIC = [(0.5, 1.0), (0.75, 2.0), (0.75, 4.0), (1.25, 2.0), (0.25, 1.0)]


@st.composite
def _windows(draw, quantum, max_count, max_len):
    """Sorted disjoint windows on multiples of `quantum` (a grid point, or
    inside a grid interval)."""
    cuts = sorted(draw(st.sets(st.integers(1, int(HORIZON / quantum) - 1),
                               max_size=2 * max_count)))
    windows = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        b = min(b, a + max_len)
        windows.append((a * quantum, b * quantum))
    return windows


@st.composite
def _edges(draw):
    """A synthetic edge: jams on both nodes' measurements and on the link, a
    command, a hashed certify over DYADIC (with the real rule now and then),
    a start and an `until`."""
    meas_i = draw(_windows(DELTA / 2, 4, 12))
    meas_j = draw(_windows(DELTA / 4, 4, 12))
    link = draw(_windows(1 / 64, 6, 160))
    stamps = _ChannelStamps(DELTA, HORIZON, [_seq(meas_i), _seq(meas_j)])
    cmds = draw(st.permutations(DYADIC))
    if draw(st.booleans()):
        cmds = [c for c in cmds if c != (0.25, 1.0)]  # no command breaks
    certify = _hashed(cmds, draw(st.integers(0, 1 << 20)))
    if draw(st.integers(0, 4)) == 0:
        def certify(gamma):
            return certified_params(gamma, 1.5, 1.1, 0.1)
    t0 = draw(st.integers(0, 64)) / 64
    until = t0 + draw(st.integers(1, int((HORIZON - 1) * 64))) / 64
    return (stamps, 0, 1, (1, 1), _seq(link), cmds[0], 0.3, t0, until, certify)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge=_edges())
def test_blocks_match_the_rows(edge):
    assert_steps_match_rows(*edge)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edge=_edges())
def test_capped_blocks_match_the_rows(edge):
    # blocks of at most 6 rows, so that a run of one command spans many
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "BLOCK", 7)
        assert_steps_match_rows(*edge)


def _edge(meas_i=(), meas_j=(), link=(), cmds=((0.5, 1.0),), diff=0.3, t0=0.0,
          until=HORIZON, certify=None):
    stamps = _ChannelStamps(DELTA, HORIZON, [_seq(meas_i), _seq(meas_j)])
    return (stamps, 0, 1, (1, 1), _seq(link), cmds[0], diff, t0, until,
            certify or (lambda gamma: cmds[0]))


def _certify_by(table, default):
    """A certify that maps the gammas in `table` to their commands."""
    return lambda gamma: table.get(gamma, default)


A, BREAK = (0.5, 1.0), (0.25, 1.0)


@pytest.mark.parametrize("case", [
    # A's period is 1/8 = DELTA: every row sits on a grid point, at gamma 0
    # unless a stamp is stale, and gamma 1/8 maps to A as well. With no jam,
    # one block runs from the third row to `until`
    dict(),
    # a jam of node i from a grid point, and one of node j from inside a grid
    # interval: the blocks end at their first grid points
    dict(meas_i=[(4.0, 4.25)], meas_j=[(9.1875, 9.5)]),
    # a jam at the third row, where the first block would start, and one at
    # the third row of the block after it
    dict(meas_i=[(0.25, 0.5), (0.75, 1.0)]),
    # a link jam across a block's end at a measurement jam, and one inside a
    # block
    dict(meas_i=[(6.0, 6.25)], link=[(5.5, 7.0), (10.03125, 10.5)]),
    # `until` inside a block, between rows and on one
    dict(until=13.3), dict(until=13.375),
], ids=["no-jam", "meas-jams", "meas-jams-at-block-starts", "link-jams", "until-between-rows",
        "until-on-a-row"])
def test_blocks_match_the_rows_on_cases(case):
    times, _healthy, cmd, _params, broke = assert_steps_match_rows(*_edge(**case))
    assert not broke and not cmd.any() and times[-1] >= case.get("until", HORIZON)


def test_a_known_gamma_of_another_command_ends_a_block():
    # under A = (0.75, 4.0), period 3/64, the lag t - grid point steps by 3/64
    # modulo 1/8: 6/64, 1/64, 4/64, 7/64, 2/64, 5/64, then 0. Gamma 0 maps to
    # C = (0.75, 2.0), whose period 3/32 leads back to lag 6/64. After the first
    # cycle gamma 0 is known, and each C row ends a block of A rows
    A, C = (0.75, 4.0), (0.75, 2.0)
    _times, _h, cmd, params, broke = assert_steps_match_rows(*_edge(
        cmds=(A,), certify=_certify_by({0.0: C}, A), until=8.0))
    assert [p[:2] for p in params] == [A, C] and not broke
    assert cmd.tolist() == ([1] + [0] * 6) * 21 + [1, 0]


@pytest.mark.parametrize("cmd,meas_j,gamma,stop", [
    # under (0.75, 4.0), period 3/64, the lags from t = 0 are 0 and 3/64, then
    # 6/64, 1/64, 4/64 and 7/64 in the block from the third row: gamma 7/32 at
    # t = 15/64 breaks inside it
    ((0.75, 4.0), [], 7 / 32, 15 / 64),
    # a jam of node j at grid point 19.875 makes the gamma there 1/8: the
    # block before ends at that row, which breaks
    (A, [(19.875, 20.0)], 0.125, 19.875),
], ids=["inside-a-block", "at-a-block-end"])
def test_a_gamma_that_breaks_eps_stops_the_edge(cmd, meas_j, gamma, stop):
    times, _h, _cmd, _params, broke = assert_steps_match_rows(*_edge(
        cmds=(cmd,), meas_j=meas_j, certify=_certify_by({gamma: BREAK}, cmd)))
    assert broke and times[-1] == stop


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["frequency", "power"])
def test_bundled_stretches_match_the_rows(seed, name, monkeypatch):
    s = load_scenario(str(SCENARIO)).with_mode("self-adaptive").with_seed(seed)
    calls = []

    def step(*args):
        calls.append(args)
        return step_adaptive(*args)
    monkeypatch.setattr(engine, "step_adaptive", step)
    monkeypatch.setattr(engine, "_Stamps", _ChannelStamps)
    Simulation(s.engine_config(name, s.build_channels())).run()
    assert sum(_step_rows(*args)[1].size for args in calls) > 10_000
    for args in calls:
        assert_steps_match_rows(*args)
