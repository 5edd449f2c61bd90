"""Hot numeric kernels for attack-trace checking, vectorised with numpy."""

from __future__ import annotations

import numpy as np


# --- duration budget ---------------------------------------------------
# Worst sub-windows are anchored at interval boundaries: for every pair of
# indices p <= q the attacked time of [start_p, end_q) must stay within
# kappa + (end_q - start_p) / tau_d. Returns the minimum slack (rhs - lhs);
# negative means the budget is violated.

def duration_min_slack(starts, ends, kappa, tau_d):
    n = starts.shape[0]
    if n == 0:
        return np.inf
    cum = np.concatenate(([0.0], np.cumsum(ends - starts)))
    # lhs[p, q] = cum[q+1] - cum[p]; rhs[p, q] = kappa + (ends[q] - starts[p]) / tau_d
    lhs = cum[1:][None, :] - cum[:-1][:, None]
    rhs = kappa + (ends[None, :] - starts[:, None]) / tau_d
    slack = rhs - lhs
    iu = np.triu_indices(n)
    return float(slack[iu].min())


# --- frequency budget --------------------------------------------------
# For every pair of off->on transition times s_p <= s_q the limit window
# (t1 = s_p, t2 -> s_q+) contains q - p + 1 transitions, which must stay
# within eta + (s_q - s_p) / tau_f.

def frequency_min_slack(trans, eta, tau_f):
    n = trans.shape[0]
    if n == 0:
        return np.inf
    counts = np.arange(1, n + 1, dtype=np.float64)
    slack = eta + (trans[None, :] - trans[:, None]) / tau_f - (
        counts[None, :] - counts[:, None] + 1.0
    )
    iu = np.triu_indices(n)
    return float(slack[iu].min())


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
