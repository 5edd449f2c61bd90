"""Offline parameter design and certification.

Pure functions: the sensitivity thresholds, the one rule mapping a threshold
to a certified (eps, rate), the finite-time convergence bound, and the
Lyapunov function.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CriterionViolatedError


def global_threshold(phi_meas_max: float, phi_act_max: float, d_max: int) -> float:
    """Uniform sensitivity must exceed 2 * d_max * (phi_meas + 2 phi_act)."""
    return 2.0 * d_max * (phi_meas_max + 2.0 * phi_act_max)


def local_threshold(
    phi_meas_i: float, phi_meas_j: float, phi_act_i: float, d_i: int, d_j: int
) -> float:
    """Per-edge sensitivity threshold from that edge's own channel bounds."""
    return d_i * (phi_meas_i + 2.0 * phi_act_i) + d_j * (phi_meas_j + 2.0 * phi_act_i)


def certified_params(
    threshold: float, eps_margin: float, rate_margin: float, eps_floor: float
) -> tuple[float, float]:
    """(eps, rate) strictly inside eps > threshold, rate > eps / (2 (eps - threshold)).

    The one certification rule: the offline designs pass a global or local
    threshold from worst-case PoDF bounds, the self-adaptive edges the delay
    aggregate gamma observed at a trigger. A zero threshold needs a positive
    eps_floor, and then gives rate = rate_margin / 2 (> 1/2 as required).
    """
    if eps_margin <= 1.0 or rate_margin <= 1.0:
        raise ValueError("design margins must exceed 1")
    eps = max(eps_margin * threshold, eps_floor)
    if eps <= threshold:
        raise CriterionViolatedError(
            "eps_floor required: zero thresholds need a positive sensitivity"
        )
    rate = rate_margin * eps / (2.0 * (eps - threshold))
    return eps, rate


def convergence_bound(
    eps: float,
    rate: float,
    d_max: int,
    d_min: int,
    phi_comm_max: float,
    phi_meas_max: float,
    phi_act_max: float,
    v0: float,
) -> float:
    """Upper bound on the finite consensus time, scaled by the initial V."""
    composite = phi_meas_max + 2.0 * phi_act_max
    decrement = eps * (1.0 - 1.0 / (2.0 * rate)) - 2.0 * d_max * composite
    denom = eps * d_min * decrement
    if denom <= 0.0:
        raise CriterionViolatedError(
            f"stability decrement {decrement:.6g} <= 0; design criteria not met"
        )
    num = 2.0 * eps * (d_max + d_min) + 8.0 * rate * d_max * d_min * (
        phi_comm_max + 2.0 * phi_act_max
    )
    return num / denom * v0


def lyapunov(states: Sequence[float]) -> float:
    """Half squared deviation from the mean; zero iff all states equal."""
    n = len(states)
    mean = sum(states) / n
    return 0.5 * sum((x - mean) ** 2 for x in states)
