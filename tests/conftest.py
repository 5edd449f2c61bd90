import numpy as np

from mgconsensus.engine import _evaluate

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
    x = np.array([_evaluate(*seg, t, after_jumps=False)[0] for seg in m.segments])
    v = 0.5 * ((x - x.mean(axis=0)) ** 2).sum(axis=0)
    return np.column_stack((t, v))
