"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each criterion prints `[PASS]`/`[FAIL] criterion N: ...` on the real stdout
(so the lines survive pytest's capture) and then asserts.
"""

import json
import sys
import time
from pathlib import Path

import conftest
import numpy as np
import pytest

from mgconsensus.controller import scaled_input
from mgconsensus.attacks import (
    DosParams,
    generate_channel_set,
    generate_sequence,
    podf_bound,
    podf_witness,
    verify_sequence,
    worst_case_sequence,
)
from mgconsensus.cli import main as cli_main
from mgconsensus.design import (
    certified_params,
    convergence_bound,
    global_threshold,
    local_threshold,
    lyapunov,
)
from mgconsensus.engine import EngineConfig, Simulation
from mgconsensus.scenario import load_scenario, mg_power_shares
from mgconsensus.topology import load_topology

RING4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"

PHI_REF = 0.0526  # per-channel persistency bound of the reference design
MEAS_BUDGET = DosParams(eta=1.0, kappa=0.0304434, tau_f=10.0, tau_d=25.0,
                        delta_star=0.01)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    conftest.acceptance_lines.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def topo():
    return load_topology(RING4)


# --- criterion 1 + shared data for 2 -----------------------------------

@pytest.fixture(scope="module")
def nominal_runs(topo):
    ne = len(topo.directed_edges())
    rng = np.random.default_rng(1)
    runs = []
    t0 = time.perf_counter()
    for _ in range(100):
        x0 = rng.uniform(0.0, 5.0, 4)
        cfg = EngineConfig(
            topology=topo, x0=list(x0), mode="nominal", eps_floor=0.1,
            edge_eps=[0.1] * ne, edge_rate=[1.0] * ne, alpha=1.5, beta=1.1,
            phi_act=[0.0] * 4, delta_meas=0.01, delta_act=0.01,
            horizon=60.0, record_period=0.05, delta=0.1 * (topo.node_count - 1),
        )
        runs.append((x0, Simulation(cfg).run()))
    return runs, time.perf_counter() - t0


def test_criterion_1_nominal_convergence(nominal_runs):
    runs, elapsed = nominal_runs
    failures = 0
    for x0, m in runs:
        bound = convergence_bound(0.1, 1.0, 2, 2, 0.0, 0.0, 0.0, lyapunov(x0))
        if not (m.converged and m.entry_time is not None and m.entry_time <= bound
                and m.delta == pytest.approx(0.3)):
            failures += 1
    ok = failures == 0 and elapsed < 1.0
    _report(1, ok, f"100 attack-free runs, {failures} failures, "
                   f"{elapsed:.3f} s total (< 1 s)")


# --- criterion 4 + shared data for 2 -----------------------------------

def _reference_channels(topo, seed, horizon):
    comm_delta = 1.2624 / (4.0 * 1.01 * 2)
    comm_budget = DosParams(eta=1.0, kappa=0.5, tau_f=10.0, tau_d=25.0,
                            delta_star=comm_delta)
    comm = {e: comm_budget for e in topo.edges}
    return generate_channel_set(
        topo, [MEAS_BUDGET] * 4, [MEAS_BUDGET] * 4, comm, horizon, seed
    ), comm_budget


@pytest.fixture(scope="module")
def resilient_runs(topo):
    ne = len(topo.directed_edges())
    eps, rate = certified_params(global_threshold(PHI_REF, PHI_REF, topo.d_max), 2.0, 1.01, 0.0)
    assert eps == pytest.approx(1.2624) and rate == pytest.approx(1.01)
    rng = np.random.default_rng(2)
    horizon = 60.0
    runs = []
    for seed in range(50):
        channels, comm_budget = _reference_channels(topo, seed, horizon)
        x0 = rng.uniform(0.0, 10.0, 4)
        cfg = EngineConfig(
            topology=topo, x0=list(x0), mode="resilient-global", eps_floor=eps,
            edge_eps=[eps] * ne, edge_rate=[rate] * ne, alpha=1.5, beta=1.1,
            phi_act=[0.0] * 4, delta_meas=0.01, delta_act=0.01,
            channels=channels, horizon=horizon, record_period=0.05,
            delta=eps * (topo.node_count - 1),
        )
        runs.append((x0, comm_budget, Simulation(cfg).run()))
    return runs, eps, rate


def test_criterion_4_resilient_convergence(resilient_runs):
    runs, eps, rate = resilient_runs
    failures = []
    for seed, (x0, comm_budget, m) in enumerate(runs):
        v0 = lyapunov(x0)
        bound = convergence_bound(
            eps, rate, 2, 2, podf_bound(comm_budget), PHI_REF, PHI_REF, v0
        )
        ok = (m.converged and m.entry_time is not None and m.entry_time <= bound
              and m.delta == pytest.approx(3 * 1.2624))
        # Lyapunov strictly decreases across successful above-threshold triggers
        va = conftest.v_at_active_triggers(m)
        for (t1, v1), (t2, v2) in zip(va, va[1:]):
            if t2 > t1 and not v2 < v1:
                ok = False
                break
        if not ok:
            failures.append(seed)
    _report(4, not failures,
            f"50 seeded multi-layer DoS runs (eps=1.2624, R=1.01, "
            f"delta=3.7872), failing seeds: {failures or 'none'}")


def test_criterion_2_zeno_freedom(nominal_runs, resilient_runs, actuation_runs):
    margins = [m.dwell_margin for _, m in nominal_runs[0]]
    margins += [m.dwell_margin for _, _, m in resilient_runs[0]]
    # self-adaptive runs whose failed actuations re-tune pending commands
    margins += [margin for _, margin in actuation_runs]
    worst = min(margins)
    ok = worst >= -1e-12
    _report(2, ok, f"min inter-trigger margin over {len(margins)} runs: {worst:.3e} "
                   f">= -1e-12")


def test_dwell_margin_matches_the_reference_on_criterion_2_runs(nominal_runs, resilient_runs):
    # the margin the engine folds as it runs is the post-run pass's, float for
    # float (the actuation runs are checked with their re-tunes below)
    runs = [m for _, m in nominal_runs[0]] + [m for _, _, m in resilient_runs[0]]
    assert [m.dwell_margin for m in runs] == list(map(conftest.min_dwell_margin_reference, runs))


# --- criterion 3 -------------------------------------------------------

def test_criterion_3_podf_property():
    rng = np.random.default_rng(3)
    horizon = 40.0
    checked = witnessed = 0
    ok = True
    for delta_star in (0.01, 0.01, 0.15623762376237624):  # meas, act, comm
        for k in range(1000):
            p = DosParams(
                eta=float(rng.uniform(1.0, 4.0)),
                kappa=float(rng.uniform(0.05, 2.0)),
                tau_f=float(rng.uniform(2.0, 20.0)),
                tau_d=float(rng.uniform(2.5, 30.0)),
                delta_star=delta_star,
            )
            s = generate_sequence(p, horizon, seed=int(rng.integers(1 << 31)))
            if not verify_sequence(s, p).ok:
                ok = False
            checked += 1
            if k < 40:  # witness scan on a subset plus the worst case
                attempts = np.arange(0.0, horizon, delta_star)
                if not podf_witness(s, p, attempts).ok:
                    ok = False
                w = worst_case_sequence(p, horizon)
                if not verify_sequence(w, p).ok:
                    ok = False
                if not podf_witness(w, p, attempts).ok:
                    ok = False
                witnessed += 1
    _report(3, ok, f"{checked} generated sequences verified across 3 channel "
                   f"classes; {witnessed} witness scans incl. worst-case "
                   f"constructions within podf bound")


# --- criterion 5 -------------------------------------------------------

@pytest.fixture(scope="module")
def heterogeneous_setup(topo):
    heavy = DosParams(1.0, 0.11, 10.0, 25.0, 0.01)       # nodes 0, 1
    light = MEAS_BUDGET                                   # nodes 2, 3
    meas = [heavy, heavy, light, light]
    phi = [podf_bound(p) for p in meas]
    return meas, phi


def test_criterion_5_conservativeness_ordering(topo, heterogeneous_setup):
    meas, phi = heterogeneous_setup
    ne_dirs = topo.directed_edges()
    degs = topo.degrees
    eps_g, rate_g = certified_params(
        global_threshold(max(phi), max(phi), topo.d_max), 2.0, 1.01, 0.0
    )
    local = [
        certified_params(local_threshold(phi[i], phi[j], phi[i], degs[i], degs[j]),
                         2.0, 1.01, 0.0)
        for i, j in ne_dirs
    ]
    eps_l = [e for e, _ in local]
    rate_l = [r for _, r in local]
    horizon = 40.0
    rng = np.random.default_rng(5)
    ordered = 0
    eps_bound_ok = True
    for seed in range(100):
        channels = generate_channel_set(topo, meas, meas, {}, horizon, 1000 + seed)
        x0 = list(rng.uniform(0.0, 10.0, 4))
        spreads = {}
        for mode, ee, er in (
            ("resilient-global", [eps_g] * len(ne_dirs), [rate_g] * len(ne_dirs)),
            ("resilient-local", eps_l, rate_l),
            ("self-adaptive", eps_l, rate_l),
        ):
            cfg = EngineConfig(
                topology=topo, x0=x0, mode=mode, eps_floor=0.1,
                edge_eps=ee, edge_rate=er, alpha=1.5, beta=1.1, phi_act=phi,
                delta_meas=0.01, delta_act=0.01,
                channels=channels, horizon=horizon, record_period=0.1,
                delta=0.1 * (topo.node_count - 1),
            )
            m = Simulation(cfg).run()
            spreads[mode] = m.spread_series[-1]
            if mode == "self-adaptive":
                # adapted eps stays under the offline per-edge design value
                # whenever the observed delays sit under their phi bounds
                c = conftest.closed_commands(m)
                for e, own, nbr, act, eps_cmd in zip(*(c[k].tolist() for k in (
                        "edge", "own", "nbr", "act", "eps"))):
                    i, j = ne_dirs[e]
                    if own < phi[i] and nbr < phi[j] and act < phi[i]:
                        if eps_cmd > eps_l[e] + 1e-9:
                            eps_bound_ok = False
        if (spreads["self-adaptive"] <= spreads["resilient-local"] + 1e-9
                and spreads["resilient-local"] <= spreads["resilient-global"] + 1e-9):
            ordered += 1
    ok = ordered >= 95 and eps_bound_ok
    _report(5, ok, f"steady-state ordering adaptive <= local <= global held in "
                   f"{ordered}/100 trials (need >= 95); adapted eps within "
                   f"offline design bound: {eps_bound_ok}")


# --- criterion 6 -------------------------------------------------------

def test_criterion_6_scaled_input_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    ok = True
    for _ in range(1000):
        span = float(rng.uniform(0.01, 2.0))
        phi = float(rng.uniform(0.0, 1.0))
        u = int(rng.choice([-1, 1]))
        s = float(rng.uniform(0.0, 100.0))  # trigger placement is irrelevant
        up = scaled_input(u, theta=span, rate=1.0, phi_act=phi)
        # worst admissible actuation delay within the span
        t_act = s + span * phi / (span + phi)
        piecewise = u * ((s + span) - t_act)
        err = abs(up * span - piecewise)
        worst = max(worst, err)
        if err > 1e-9 or abs(up * span) > span + 1e-12 or abs(up) > 1.0:
            ok = False
    _report(6, ok, f"1000 random (span, phi) draws: scaled-input displacement "
                   f"matches the delayed-pulse construction, max err "
                   f"{worst:.2e} (<= 1e-9), magnitude <= span")


# --- criterion 7 -------------------------------------------------------

def test_criterion_7_threshold_ordering():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        d_max = int(rng.integers(1, 6))
        phi_m_max = float(rng.uniform(0.01, 1.0))
        phi_a_max = float(rng.uniform(0.01, 1.0))
        thr_g = global_threshold(phi_m_max, phi_a_max, d_max)
        for _pair in range(5):
            d_i = int(rng.integers(1, d_max + 1))
            d_j = int(rng.integers(1, d_max + 1))
            pm_i = float(rng.uniform(0.0, phi_m_max))
            pm_j = float(rng.uniform(0.0, phi_m_max))
            pa_i = float(rng.uniform(0.0, phi_a_max))
            if local_threshold(pm_i, pm_j, pa_i, d_i, d_j) > thr_g + 1e-12:
                ok = False
        # equality at the maxima on a regular pair
        eq = local_threshold(phi_m_max, phi_m_max, phi_a_max, d_max, d_max)
        if abs(eq - thr_g) > 1e-12:
            ok = False
    _report(7, ok, "1000 random bound sets: every local threshold <= global, "
                   "equality at uniform maxima")


# --- criterion 8 -------------------------------------------------------

def test_criterion_8_power_sharing():
    scen = load_scenario(str(SCENARIO))
    channels = scen.build_channels()
    m = Simulation(scen.engine_config("power", channels)).run()
    assert m.converged
    # each MG's total from its droop-scaled state x_k = c P_k / sum(R_k)
    shares = [
        mg_power_shares(scen, k, x * sum(ratings) / scen.droop_constant)
        for k, (x, ratings) in enumerate(zip(m.states[-1], scen.mg_ratings))
    ]
    target = np.array([4.0, 4.0, 3.0, 3.0, 2.0])
    ratio = np.array(shares[1]) / shares[1][-1] * target[-1]
    err = float(np.max(np.abs(ratio - target) / target))
    # consensus on the states loads every DG of every MG alike: the per-unit
    # loads P_ik / R_ik spread by the state spread / c, below delta / c
    per_unit = [p / r for s, ratings in zip(shares, scen.mg_ratings)
                for p, r in zip(s, ratings)]
    spread = max(per_unit) - min(per_unit)
    bound = m.delta / scen.droop_constant
    ok = err < 0.01 and spread < bound
    _report(8, ok, f"MG2 intra-MG shares ratio {np.round(ratio, 4).tolist()} "
                   f"vs 4:4:3:3:2, max rel err {err:.2e} (< 1 %); per-unit DG load "
                   f"spread over all MGs {spread:.4f} (< delta/c = {bound:.4g})")


# --- criterion 9 + shared data for 2 ----------------------------------

ACT_CASE = {"measurement": DosParams(1.0, 0.05, 10.0, 25.0, 0.01),
            "actuation": DosParams(1.0, 1.5, 4.0, 5.0, 0.01),
            "communication": DosParams(1.0, 0.1, 10.0, 20.0, 0.05)}
FULL = {"measurement": 1.0, "actuation": 1.0, "communication": 1.0}


def _actuation_case(topo, scale, reference=True) -> list:
    """(entry time or the horizon, min dwell margin) of 50 seeded self-adaptive
    runs under a harsh actuation budget, each class's budget scaled by `scale`;
    with `reference`, each margin is checked against the loop over re-tunes."""
    horizon = 60.0
    ne = len(topo.directed_edges())
    rng = np.random.default_rng(9)
    x0s = [list(rng.uniform(0.0, 6.0, 4)) for _ in range(50)]
    budgets = {cls: p.scaled(scale[cls]) for cls, p in ACT_CASE.items()}
    # hardening a channel shrinks its budget, hence the offline bound
    # the input scaling is designed against
    phi_act = [podf_bound(budgets["actuation"])] * 4
    out = []
    for seed in range(50):
        channels = generate_channel_set(
            topo, [budgets["measurement"]] * 4, [budgets["actuation"]] * 4,
            {e: budgets["communication"] for e in topo.edges}, horizon, 2000 + seed)
        cfg = EngineConfig(
            topology=topo, x0=x0s[seed], mode="self-adaptive", eps_floor=0.1,
            edge_eps=[0.1] * ne, edge_rate=[1.0] * ne, alpha=1.5, beta=1.1,
            phi_act=phi_act, delta_meas=0.01, delta_act=0.01,
            channels=channels, horizon=horizon, record_period=0.1,
            delta=0.1 * (topo.node_count - 1),
        )
        m = Simulation(cfg).run()
        margin = m.dwell_margin
        assert not reference or margin == conftest.min_dwell_margin_reference(m)
        out.append((m.entry_time if m.entry_time is not None else horizon, margin))
    return out


@pytest.fixture(scope="module")
def actuation_runs(topo):
    return _actuation_case(topo, FULL, reference=False)


def test_dwell_margin_matches_the_retune_loop_on_actuation_runs(topo, actuation_runs):
    # the fixture's runs, again with each margin checked against the reference
    # (criterion 9 checks its halved-budget runs)
    assert _actuation_case(topo, FULL) == actuation_runs


def test_criterion_9_actuation_hardening_pays_most(topo, actuation_runs):
    def median_entry(runs):
        return float(np.median([entry for entry, _ in runs]))

    base = median_entry(actuation_runs)
    gains = {}
    for cls in ("measurement", "actuation", "communication"):
        gains[cls] = base - median_entry(_actuation_case(topo, {**FULL, cls: 0.5}))
    ok = (gains["actuation"] >= gains["measurement"]
          and gains["actuation"] >= gains["communication"])
    _report(9, ok, f"median convergence-time gain from halving each class "
                   f"over 50 seeds: {({k: round(v, 3) for k, v in gains.items()})} "
                   f"(actuation largest)")


# --- criterion 10 ------------------------------------------------------

def test_criterion_10_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(SCENARIO), "--out", str(a)]) == 0
    assert cli_main(["run", str(SCENARIO), "--out", str(b)]) == 0
    diffs = [f.name for f in sorted(a.iterdir())
             if f.read_bytes() != (b / f.name).read_bytes()]
    # summary embeds only the scenario path, which is identical here
    ok = not diffs
    _report(10, ok, f"re-run of the bundled scenario produced "
                    f"{'byte-identical outputs' if ok else 'diffs in ' + str(diffs)}")
