"""The edge's control law: the self-triggered ternary rule and its online adaptation.

Each directed edge (i, j) owns a clock that decays at its rate R; when it
hits zero the edge applies `trigger` to the freshest cached data (stale
under attack), or to nothing when a resilient edge's link is jammed. In the
self-adaptive mode the edge also measures how stale its data actually was
(own measurement age, neighbour data age, actuation delay of the previous
command): the engine feeds that aggregate gamma to `design.certified_params`
in place of the offline worst-case threshold, and scales the input by the
worst-case actuation-delay share.
"""

from __future__ import annotations

from typing import Optional


def trigger(diff: Optional[float], eps: float, rate: float, d_i: int,
            d_j: int) -> tuple[int, float, float]:
    """(u, theta, dwell floor) of a trigger that reads `diff`, or None on a
    jammed link: u = sgn(diff) outside the closed dead zone |diff| < eps, else
    0; the clock theta = max(|diff|, eps) / (2(d_i+d_j)); the floor
    eps / (2R(d_i+d_j)), the least wall-clock time to the edge's next trigger."""
    if diff is None or -eps < diff < eps:
        u, mag = 0, eps
    elif diff > 0.0:
        u, mag = 1, diff
    else:
        u, mag = -1, -diff
    return u, mag / (2.0 * (d_i + d_j)), eps / (2.0 * rate * (d_i + d_j))


def delay_aggregate(
    own_delay: float, nbr_delay: float, act_delay: float, d_i: int, d_j: int
) -> float:
    """Degree-weighted sum of the observed delays driving adaptation; the
    delays are t - stamp >= 0, since no stamp precedes activation_time >= 0."""
    return d_i * (own_delay + act_delay) + d_j * (nbr_delay + act_delay)


def scaled_input(u_ternary: float, theta: float, rate: float, phi_act: float) -> float:
    """Shrink the edge input by the worst-case actuation-delay share.

    With inter-trigger span theta/rate, the applied input u * span/(span+phi)
    contributes the same displacement as the ideal ternary pulse would under
    the worst admissible actuation delay.
    """
    if u_ternary == 0.0:
        return 0.0
    span = theta / rate
    return u_ternary * span / (span + phi_act)


def actuation_estimate(trigger_time: float, failed_attempt_time: float, delta_star_act: float) -> float:
    """Updated actuation-delay estimate after a failed attempt.

    The next attempt fires delta_star after the failure, so by the final
    failed attempt the estimate equals the true delay.
    """
    return failed_attempt_time + delta_star_act - trigger_time
