"""Droop equivalencing of one microgrid and the control objectives.

Per-DG droop coefficients inverse to ratings make intra-MG power sharing
equivalent to scalar consensus on the droop-scaled MG totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyMgError, InconsistentDroopsError

_REL_TOL = 1e-9


@dataclass(frozen=True)
class DgSpec:
    """One distributed generator inside a microgrid."""

    rating_kw: float            # active power rating
    droop: float                # frequency droop coefficient, Hz/kW scale
    omega: float = 0.0          # angular frequency, rad/s
    omega_c: float = 30.0       # low-pass cutoff of the inverter loop, rad/s

    def __post_init__(self):
        if self.rating_kw <= 0:
            raise ValueError("rating must be positive")
        if self.droop <= 0:
            raise ValueError("droop coefficient must be positive")


def dg_from_rating(rating_kw: float, droop_constant: float = 1.0, **kw) -> DgSpec:
    """DG with droop set inversely proportional to its rating."""
    return DgSpec(rating_kw=rating_kw, droop=droop_constant / rating_kw, **kw)


@dataclass(frozen=True)
class MgEquivalent:
    """Equivalent single-generator model of one microgrid."""

    droop: float
    omega: float
    total_power_kw: float

    @property
    def set_point(self) -> float:
        """Nominal droop set point: omega + droop * total power."""
        return self.omega + self.droop * self.total_power_kw


def aggregate(dgs: Sequence[DgSpec], total_power_kw: float = 0.0) -> MgEquivalent:
    """Collapse a microgrid's DGs to the equivalent droop model.

    The equivalent droop is the harmonic combination of the DG droops; the
    equivalent frequency is the droop-weighted mean (the cutoff frequency
    appears in both numerator and denominator and cancels).
    """
    if not dgs:
        raise EmptyMgError("microgrid has no generators")
    inv_sum = sum(1.0 / dg.droop for dg in dgs)
    m_eq = 1.0 / inv_sum
    omega_eq = sum(dg.omega / (dg.omega_c * dg.droop) for dg in dgs) / sum(
        1.0 / (dg.omega_c * dg.droop) for dg in dgs
    )
    return MgEquivalent(m_eq, omega_eq, total_power_kw)


def share_power(total_power_kw: float, dgs: Sequence[DgSpec]) -> list[float]:
    """Split the MG total across DGs proportionally to their ratings.

    Valid only when droop * rating is uniform, which makes the per-DG
    droop-scaled outputs equal.
    """
    if not dgs:
        raise EmptyMgError("microgrid has no generators")
    products = [dg.droop * dg.rating_kw for dg in dgs]
    ref = products[0]
    for k, prod in enumerate(products):
        if not math.isclose(prod, ref, rel_tol=_REL_TOL):
            raise InconsistentDroopsError(
                f"droop * rating differs at DG {k}: {prod} vs {ref}"
            )
    rating_sum = sum(dg.rating_kw for dg in dgs)
    return [total_power_kw * dg.rating_kw / rating_sum for dg in dgs]
