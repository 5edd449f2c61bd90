from pathlib import Path

import numpy as np
import yaml

from mgconsensus.engine import CLOSED

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def v_at_active_triggers(m) -> np.ndarray:
    """Rows (t, V) at the triggers with a healthy link and u != 0, V read from
    the run's segments just before any jump at t (a trigger precedes a
    disturbance)."""
    t = np.array([row[0] for row in m.trigger_log if row[2] and row[4] != 0], dtype=float)
    x = []
    for seg_t, seg_x, seg_u in m.segments:
        k = np.maximum(np.searchsorted(seg_t, t, "left") - 1, 0)  # the last segment before t
        x.append(seg_x[k] + seg_u[k] * (t - seg_t[k]))
    x = np.array(x)
    v = 0.5 * ((x - x.mean(axis=0)) ** 2).sum(axis=0)
    return np.column_stack((t, v))


def closed_commands(m) -> np.ndarray:
    """The run's closed-command records as one array, read a block at a time
    through `records()`."""
    return np.concatenate([np.zeros(0, CLOSED), *m.closed_commands.records()])


def ring64_data() -> dict:
    """The bundled scenario on a 64-node ring, frequency instance only, with a
    12 s horizon and x0 spread over 2.5 delta: the active regime at graph size."""
    n = 64
    data = yaml.safe_load(SCENARIO.read_text())
    del data["mgs"]
    data["horizon"] = 12.0
    data["topology"]["adjacency"] = [[int((j - i) % n in (1, n - 1)) for j in range(n)]
                                     for i in range(n)]
    u = np.random.default_rng(0).uniform(size=n)
    x0 = 50.0 + 2.5 * 0.1 * (n - 1) * ((u - u.min()) / (u.max() - u.min()) - 0.5)
    data["instances"] = {"frequency": {"initial": x0.tolist()}}
    return data


def min_dwell_margin_reference(m) -> float:
    """`RunMetrics.dwell_margin` after the run, as a loop over the re-tunes: the
    rows sorted by edge, then each re-tune's floor written over its trigger
    row's, two `np.searchsorted` per re-tune."""
    edges, times, floors = [np.zeros(0, np.intp)], [np.zeros(0)], [np.zeros(0)]
    for ts, tails, codes in m.trigger_log.blocks():
        edges.append(tails["edge"][codes])
        times.append(ts)
        floors.append(tails["floor"][codes])
    # the log is in time order, and a stable sort by edge keeps each edge's rows in it
    order = np.argsort(np.concatenate(edges), kind="stable")
    edge, times, floors = (np.concatenate(c)[order] for c in (edges, times, floors))
    for e, t, floor_ in m.retunes:
        a, b = np.searchsorted(edge, [e, e + 1])
        floors[a + np.searchsorted(times[a:b], t)] = floor_
    gaps = (np.diff(times) - floors[:-1])[edge[1:] == edge[:-1]]
    return float(np.min(gaps, initial=np.inf))
