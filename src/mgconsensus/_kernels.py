"""Hot numeric kernels for attack-trace checking, vectorised with numpy."""

from __future__ import annotations

import numpy as np


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
