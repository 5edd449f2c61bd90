"""Online self-adaptation: the observed delay aggregate and the input scaling.

After every successful communication attempt the edge measures how stale
its data actually was (own measurement age, neighbour data age, actuation
delay of the previous command). The engine feeds that aggregate gamma to
`design.certified_params` in place of the offline worst-case threshold.
"""

from __future__ import annotations


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
