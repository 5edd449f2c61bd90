from pathlib import Path

import numpy as np
import pytest

from mgconsensus.design import (
    certified_params,
    convergence_bound,
    global_threshold,
    local_threshold,
    lyapunov,
)
from mgconsensus.engine import _entry_time
from mgconsensus.errors import CriterionViolatedError
from mgconsensus.scenario import load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"
PHI = 0.0526  # per-channel persistency bound of the reference design


def test_global_threshold_and_design():
    thr = global_threshold(PHI, PHI, d_max=2)
    assert thr == pytest.approx(0.6312)
    eps, rate = certified_params(thr, 2.0, 1.01, 0.0)
    assert eps == pytest.approx(1.2624)
    assert rate == pytest.approx(1.01)


def test_global_design_strictness():
    thr = global_threshold(PHI, PHI, 2)
    eps, rate = certified_params(thr, eps_margin=1.5, rate_margin=1.2, eps_floor=0.0)
    assert eps > thr
    assert rate > eps / (2.0 * (eps - thr))


def test_design_with_zero_bounds_needs_floor():
    thr = global_threshold(0.0, 0.0, 2)
    eps, rate = certified_params(thr, 2.0, 1.01, eps_floor=0.1)
    assert eps == 0.1
    assert rate == pytest.approx(1.01 / 2.0)
    with pytest.raises(CriterionViolatedError):
        certified_params(thr, 2.0, 1.01, 0.0)


def test_margin_validation():
    with pytest.raises(ValueError):
        certified_params(global_threshold(PHI, PHI, 2), 1.0, 1.01, 0.0)
    with pytest.raises(ValueError):
        certified_params(local_threshold(PHI, PHI, PHI, 1, 1), 2.0, 0.99, 0.0)


def test_local_threshold_formula():
    thr = local_threshold(0.1, 0.2, 0.05, d_i=2, d_j=3)
    assert thr == pytest.approx(2 * (0.1 + 0.1) + 3 * (0.2 + 0.1))


def test_local_matches_global_on_regular_uniform_inputs():
    thr_g = global_threshold(PHI, PHI, 2)
    thr_l = local_threshold(PHI, PHI, PHI, 2, 2)
    assert thr_l == pytest.approx(thr_g)
    eg, rg = certified_params(thr_g, 2.0, 1.01, 0.0)
    el, rl = certified_params(thr_l, 2.0, 1.01, 0.0)
    assert (el, rl) == (pytest.approx(eg), pytest.approx(rg))


def test_convergence_bound_value():
    bound = convergence_bound(
        eps=1.2624, rate=1.01, d_max=2, d_min=2,
        phi_comm_max=PHI, phi_meas_max=PHI, phi_act_max=PHI, v0=1.0,
    )
    assert bound == pytest.approx(963.2762991128037, rel=1e-9)


def test_convergence_bound_scales_with_v0():
    args = dict(eps=1.2624, rate=1.01, d_max=2, d_min=2,
                phi_comm_max=PHI, phi_meas_max=PHI, phi_act_max=PHI)
    assert convergence_bound(v0=2.0, **args) == pytest.approx(
        2.0 * convergence_bound(v0=1.0, **args)
    )


def test_convergence_bound_rejects_unstable_design():
    with pytest.raises(CriterionViolatedError):
        convergence_bound(0.1, 1.0, 2, 2, 0.5, 0.5, 0.5, 1.0)


def test_consensus_set_check():
    # the target set is spread < delta = eps (n - 1), strictly; the engine's
    # entry time is the first sample after which the spread stays inside it
    times = np.array([0.0, 1.0, 2.0])
    assert _entry_time(times, np.array([0.3, 0.2, 0.2]), 0.11 * 2) == (1.0, True)
    assert _entry_time(times, np.array([1.0, 0.5, 0.49]), 0.5) == (2.0, True)
    assert _entry_time(times, np.array([0.2, 0.2, 0.5]), 0.5) == (None, False)
    assert _entry_time(times[:0], times[:0], 0.5) == (None, False)


def test_lyapunov():
    assert lyapunov([3.0, 3.0, 3.0]) == 0.0
    assert lyapunov([0.0, 2.0]) == pytest.approx(1.0)
    assert lyapunov([1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_certificate_serialisation():
    # the bundled ring in local mode: per-edge maps keyed "i-j", per-node ones "i"
    scen = load_scenario(str(SCENARIO)).with_mode("resilient-local")
    d = scen.certificate()
    topo = scen.topology
    assert d["mode"] == "local"
    assert set(d["eps"]) == set(d["rate"]) == {f"{i}-{j}" for i, j in topo.directed_edges()}
    assert set(d["phi_communication"]) == {f"{i}-{j}" for i, j in topo.edges}
    assert set(d["phi_measurement"]) == set(d["phi_actuation"]) == {"0", "1", "2", "3"}
    assert d["phi_composite_meas_act"] == d["phi_measurement_max"] + 2.0 * d["phi_actuation_max"]
    assert d["phi_composite_comm_act"] == \
        d["phi_communication_max"] + 2.0 * d["phi_actuation_max"]
    # satisfied exactly when the convergence bound exists: the local design is,
    # the nominal one (eps 0.1 against the bundled budgets) is not
    assert d["satisfied"] is True and d["t_star_bound"] > 0.0
    nominal = scen.with_mode("nominal").certificate()
    assert nominal["satisfied"] is False and nominal["t_star_bound"] is None
    assert nominal["eps"] == {"all": 0.1}
