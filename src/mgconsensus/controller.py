"""Per-edge self-triggered ternary controller.

Each directed edge (i, j) owns a clock that decays at its own rate; when it
hits zero the edge recomputes its ternary contribution from the freshest
cached data (stale under attack) or zeroes it when the link is jammed.
"""

from __future__ import annotations


def deadzone_sign(z: float, eps: float) -> int:
    """Ternary quantiser: sign of z outside the closed dead zone |z| < eps."""
    if z >= eps:
        return 1
    if z <= -eps:
        return -1
    return 0


def clock_reset(diff: float, eps: float, d_i: int, d_j: int) -> float:
    """Clock value after a healthy trigger: max(|diff|, eps) / (2(d_i+d_j))."""
    mag = diff if diff >= 0.0 else -diff
    if mag < eps:
        mag = eps
    return mag / (2.0 * (d_i + d_j))


def attacked_clock_reset(eps: float, d_i: int, d_j: int) -> float:
    """Clock value after a trigger under communication DoS."""
    return eps / (2.0 * (d_i + d_j))


def dwell_time_floor(eps: float, rate: float, d_i: int, d_j: int) -> float:
    """Guaranteed minimum inter-trigger interval of one edge."""
    return eps / (2.0 * rate * (d_i + d_j))
