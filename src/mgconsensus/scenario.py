"""Scenario files: schema validation and assembly into runnable pieces.

A scenario is one YAML document (schema version 1) describing topology,
controller mode and margins, per-channel attack budgets, the simulated
instances, and optional per-MG generator tables. Unknown keys are errors;
scenario files are the reproducibility contract.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from typing import Any, Optional

import yaml

from . import aggregation
from .attacks import ChannelSet, DosParams, generate_channel_set, podf_bound
from .design import (
    DesignCertificate,
    convergence_bound,
    global_design,
    local_design,
    lyapunov,
)
from .engine import EngineConfig
from .errors import ConfigError
from .topology import Topology, load_topology

MODES = ("nominal", "resilient-global", "resilient-local", "self-adaptive")

_SCHEMA: dict[str, Any] = {
    "version": None,
    "seed": None,
    "horizon": None,
    "activation_time": None,
    "record_period": None,
    "topology": {"adjacency": None},
    "controller": {
        "mode": None, "eps": None, "rate": None, "eps_margin": None,
        "rate_margin": None, "alpha": None, "beta": None,
    },
    "channels": {
        "delta_star_measurement": None,
        "delta_star_actuation": None,
        "per_direction_comm": None,
        "measurement": {"default": None, "overrides": None},
        "actuation": {"default": None, "overrides": None},
        "communication": {"default": None, "overrides": None},
        "trace_file": None,
    },
    "instances": {
        "frequency": {"initial": None, "reference": None, "disturbances": None},
        "power": {"initial": None, "initial_power_kw": None, "disturbances": None},
    },
    "mgs": None,
    "droop_constant": None,
}

_BUDGET_KEYS = {"eta", "kappa", "tau_f", "tau_d"}


def _check_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, sub in data.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{path}{key}' in scenario file")
        if isinstance(sub, dict) and isinstance(schema[key], dict):
            _check_keys(sub, schema[key], f"{path}{key}.")


def _budget(entry: dict, where: str) -> dict:
    extra = set(entry) - _BUDGET_KEYS
    if extra:
        raise ConfigError(f"unknown budget keys {sorted(extra)} in {where}")
    missing = _BUDGET_KEYS - set(entry)
    if missing:
        raise ConfigError(f"missing budget keys {sorted(missing)} in {where}")
    return {k: float(entry[k]) for k in _BUDGET_KEYS}


@dataclass
class Scenario:
    raw: dict
    topology: Topology
    seed: int
    horizon: float
    activation_time: float
    record_period: float
    mode: str
    eps: float
    rate: float
    eps_margin: float
    rate_margin: float
    alpha: float
    beta: float
    has_attacks: bool
    delta_meas: float
    delta_act: float
    per_direction_comm: bool
    meas_budgets: list[Optional[dict]]
    act_budgets: list[Optional[dict]]
    comm_budgets: dict[tuple[int, int], Optional[dict]]
    trace_file: Optional[str]
    instances: dict[str, dict]
    mg_ratings: Optional[list[list[float]]]
    droop_constant: float

    # ---- design -----------------------------------------------------

    def channel_params(self) -> tuple[list[DosParams], list[DosParams], dict]:
        """Measurement/actuation budgets as DosParams (comm needs design first)."""
        meas, act = [], []
        for i in range(self.topology.node_count):
            mb = self.meas_budgets[i]
            ab = self.act_budgets[i]
            meas.append(DosParams(delta_star=self.delta_meas, **mb) if mb else None)
            act.append(DosParams(delta_star=self.delta_act, **ab) if ab else None)
        return meas, act, dict(self.comm_budgets)

    def phi_bounds(self) -> tuple[list[float], list[float]]:
        """Per-node measurement and actuation persistency bounds."""
        meas, act, _ = self.channel_params()
        phi_meas = [podf_bound(p) if p else 0.0 for p in meas]
        phi_act = [podf_bound(p) if p else 0.0 for p in act]
        return phi_meas, phi_act

    def edge_design(self) -> tuple[list[float], list[float], str]:
        """Resolved per-directed-edge (eps, rate) for the configured mode."""
        topo = self.topology
        dirs = topo.directed_edges()
        degs = topo.degrees
        if self.mode == "nominal":
            return [self.eps] * len(dirs), [self.rate] * len(dirs), "nominal"
        phi_meas, phi_act = self.phi_bounds()
        if self.mode == "resilient-global":
            e, r = global_design(
                max(phi_meas), max(phi_act), topo.d_max,
                self.eps_margin, self.rate_margin, eps_floor=self.eps,
            )
            return [e] * len(dirs), [r] * len(dirs), "global"
        eps_list, rate_list = [], []
        for i, j in dirs:
            e, r = local_design(
                phi_meas[i], phi_meas[j], phi_act[i], degs[i], degs[j],
                self.eps_margin, self.rate_margin, eps_floor=self.eps,
            )
            eps_list.append(e)
            rate_list.append(r)
        return eps_list, rate_list, "local"

    def comm_delta_star(self, edge_rate: list[float]) -> dict[tuple[int, int], float]:
        """Derived minimum communication attempt interval per undirected edge.

        The trigger law itself enforces the dwell time, so the channel's
        minimum attempt spacing is eps / (4 R d_max) with the designed rate.
        """
        topo = self.topology
        dirs = topo.directed_edges()
        out = {}
        for (i, j), r in zip(dirs, edge_rate):
            key = topo.edge_key(i, j)
            val = self.eps / (4.0 * r * topo.d_max)
            out[key] = min(out.get(key, val), val)
        return out

    def resolved_comm_params(self) -> dict[tuple[int, int], DosParams]:
        _, edge_rate, _ = self.edge_design()
        deltas = self.comm_delta_star(edge_rate)
        out = {}
        for key, budget in self.comm_budgets.items():
            if budget is not None:
                out[key] = DosParams(delta_star=deltas[key], **budget)
        return out

    def build_channels(
        self,
        seed: Optional[int] = None,
        scale_class: Optional[str] = None,
        intensity: float = 1.0,
    ) -> Optional[ChannelSet]:
        """Generate (or load) the attack traces for this scenario.

        scale_class in {"measurement", "actuation", "communication"} rescales
        that class's budgets by `intensity` before generation (sweeps).
        """
        if not self.has_attacks:
            return None
        if self.trace_file:
            try:
                with open(self.trace_file) as fh:
                    channels = ChannelSet.from_dict(yaml.safe_load(fh))
            except OSError as exc:
                raise ConfigError(f"cannot read channels.trace_file: {exc}") from None
            channels.check_complete(self.topology, self.resolved_comm_params(),
                                    self.per_direction_comm)
            return channels
        meas, act, _ = self.channel_params()
        comm = self.resolved_comm_params()
        if scale_class == "measurement":
            meas = [p.scaled(intensity) if p else None for p in meas]
        elif scale_class == "actuation":
            act = [p.scaled(intensity) if p else None for p in act]
        elif scale_class == "communication":
            comm = {k: p.scaled(intensity) for k, p in comm.items()}
        elif scale_class is not None:
            raise ConfigError(f"unknown channel class '{scale_class}'")
        zero = DosParams(0.0, 0.0, 1.0, 2.0, self.delta_meas)
        meas = [p if p else zero for p in meas]
        act = [p if p else zero for p in act]
        return generate_channel_set(
            self.topology, meas, act, comm, self.horizon,
            self.seed if seed is None else seed, self.per_direction_comm,
        )

    def certificate(self, instance: str = "frequency") -> DesignCertificate:
        topo = self.topology
        phi_meas, phi_act = self.phi_bounds()
        comm = self.resolved_comm_params()
        phi_comm = {k: podf_bound(p) for k, p in comm.items()}
        eps_list, rate_list, design_mode = self.edge_design()
        dirs = topo.directed_edges()
        if design_mode in ("nominal", "global"):
            eps_map = {"all": eps_list[0]}
            rate_map = {"all": rate_list[0]}
        else:
            eps_map = {e: v for e, v in zip(dirs, eps_list)}
            rate_map = {e: v for e, v in zip(dirs, rate_list)}
        pm = max(phi_meas) if phi_meas else 0.0
        pa = max(phi_act) if phi_act else 0.0
        pc = max(phi_comm.values()) if phi_comm else 0.0
        x0 = self.instances.get(instance, {}).get("initial")
        v0 = lyapunov(x0) if x0 else 0.0
        notes = []
        satisfied = True
        t_bound = None
        try:
            eps_chk = min(eps_list)
            rate_chk = min(rate_list)
            t_bound = convergence_bound(
                eps_chk, rate_chk, topo.d_max, topo.d_min, pc, pm, pa, v0
            )
        except Exception as exc:  # noqa: BLE001 - reported in the certificate
            satisfied = False
            notes.append(str(exc))
        for i in range(topo.node_count):
            if phi_meas[i] > pc + 1e-12 and pc > 0.0:
                notes.append(f"node {i}: measurement bound exceeds every comm bound")
        return DesignCertificate(
            mode=design_mode,
            eps=eps_map,
            rate=rate_map,
            phi_meas={i: v for i, v in enumerate(phi_meas)},
            phi_act={i: v for i, v in enumerate(phi_act)},
            phi_comm=phi_comm,
            phi_meas_max=pm,
            phi_act_max=pa,
            phi_comm_max=pc,
            delta=self.eps * (topo.node_count - 1),
            t_star_bound=t_bound,
            v0=v0,
            satisfied=satisfied,
            notes=notes,
        )

    # ---- engine assembly --------------------------------------------

    def engine_config(
        self,
        instance: str,
        channels: Optional[ChannelSet] = None,
        mode: Optional[str] = None,
        stop_when_frozen: bool = False,
    ) -> EngineConfig:
        if instance not in self.instances:
            raise ConfigError(f"scenario has no '{instance}' instance")
        inst = self.instances[instance]
        mode = mode or self.mode
        if mode != self.mode:
            scen = self.with_mode(mode)
            return scen.engine_config(instance, channels, None, stop_when_frozen)
        eps_list, rate_list, _ = self.edge_design()
        _, phi_act = self.phi_bounds()
        n = self.topology.node_count
        return EngineConfig(
            topology=self.topology,
            x0=inst["initial"],
            mode=mode,
            eps_floor=self.eps,
            edge_eps=eps_list,
            edge_rate=rate_list,
            alpha=self.alpha,
            beta=self.beta,
            phi_act=phi_act,
            delta_meas=[self.delta_meas] * n,
            delta_act=[self.delta_act] * n,
            channels=channels,
            per_direction_comm=self.per_direction_comm,
            activation_time=self.activation_time,
            horizon=self.horizon,
            record_period=self.record_period,
            disturbances=[
                (d["time"], d["node"], d["jump"]) for d in inst.get("disturbances", [])
            ],
            # target-set width follows the operating sensitivity: the floor for
            # the adaptive mode (it re-tunes towards it), the design value else
            eps_reference=self.eps if mode == "self-adaptive" else min(eps_list),
            stop_when_frozen=stop_when_frozen,
        )

    def with_mode(self, mode: str) -> "Scenario":
        if mode not in MODES:
            raise ConfigError(f"unknown controller mode '{mode}'")
        scen = copy.copy(self)
        scen.mode = mode
        return scen

    def with_seed(self, seed: int) -> "Scenario":
        scen = copy.copy(self)
        scen.seed = seed
        return scen


def _instances(data: dict, n: int, mg_ratings, droop_constant) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name in ("frequency", "power"):
        if name not in data:
            continue
        inst = dict(data[name])
        if name == "power" and "initial" not in inst:
            if "initial_power_kw" not in inst or mg_ratings is None:
                raise ConfigError(
                    "power instance needs 'initial' or 'initial_power_kw' plus mgs"
                )
            powers = inst.pop("initial_power_kw")
            if len(powers) != n or len(mg_ratings) != n:
                raise ConfigError("initial_power_kw and mgs must have one entry per node")
            inst["initial"] = [
                droop_constant * p / sum(r) for p, r in zip(powers, mg_ratings)
            ]
        if "initial" not in inst or len(inst["initial"]) != n:
            raise ConfigError(f"instance '{name}' needs one initial state per node")
        inst["initial"] = [float(v) for v in inst["initial"]]
        for d in inst.get("disturbances", []) or []:
            if set(d) - {"time", "node", "jump"}:
                raise ConfigError(f"unknown disturbance keys in instance '{name}'")
        inst.setdefault("disturbances", [])
        out[name] = inst
    if not out:
        raise ConfigError("scenario defines no instances")
    return out


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a mapping")
    _check_keys(data, _SCHEMA)
    if data.get("version") != 1:
        raise ConfigError(f"unsupported scenario version {data.get('version')!r}")

    topo = load_topology(data["topology"]["adjacency"])
    n = topo.node_count
    ctrl = data.get("controller", {})
    mode = ctrl.get("mode", "nominal")
    if mode not in MODES:
        raise ConfigError(f"unknown controller mode '{mode}'")

    ch = data.get("channels") or {}
    has_attacks = bool(ch)

    def _per_node(section: str) -> list[Optional[dict]]:
        sec = ch.get(section) or {}
        default = sec.get("default")
        over = sec.get("overrides") or {}
        out: list[Optional[dict]] = []
        for i in range(n):
            entry = over.get(str(i), over.get(i, default))
            out.append(_budget(entry, f"channels.{section}[{i}]") if entry else None)
        return out

    comm_budgets: dict[tuple[int, int], Optional[dict]] = {}
    sec = ch.get("communication") or {}
    default = sec.get("default")
    over = sec.get("overrides") or {}
    for i, j in topo.edges:
        entry = over.get(f"{i}-{j}", default)
        comm_budgets[(i, j)] = (
            _budget(entry, f"channels.communication[{i}-{j}]") if entry else None
        )

    horizon = float(data.get("horizon", 60.0))
    activation = float(data.get("activation_time", 0.0))
    if horizon <= activation:
        raise ConfigError("horizon must exceed activation_time")

    mgs = data.get("mgs")
    mg_ratings = None
    if mgs is not None:
        if len(mgs) != n:
            raise ConfigError("mgs must list one generator table per node")
        mg_ratings = []
        for k, mg in enumerate(mgs):
            if set(mg) - {"ratings_kw", "name"}:
                raise ConfigError(f"unknown keys in mgs[{k}]")
            mg_ratings.append([float(r) for r in mg["ratings_kw"]])
    droop_constant = float(data.get("droop_constant", 1.0))

    return Scenario(
        raw=data,
        topology=topo,
        seed=int(data.get("seed", 0)),
        horizon=horizon,
        activation_time=activation,
        record_period=float(data.get("record_period", 0.05)),
        mode=mode,
        eps=float(ctrl.get("eps", 0.1)),
        rate=float(ctrl.get("rate", 1.0)),
        eps_margin=float(ctrl.get("eps_margin", 2.0)),
        rate_margin=float(ctrl.get("rate_margin", 1.01)),
        alpha=float(ctrl.get("alpha", 1.5)),
        beta=float(ctrl.get("beta", 1.1)),
        has_attacks=has_attacks,
        delta_meas=float(ch.get("delta_star_measurement", 0.01)),
        delta_act=float(ch.get("delta_star_actuation", 0.01)),
        per_direction_comm=bool(ch.get("per_direction_comm", False)),
        meas_budgets=_per_node("measurement") if has_attacks else [None] * n,
        act_budgets=_per_node("actuation") if has_attacks else [None] * n,
        comm_budgets=comm_budgets if has_attacks else {e: None for e in topo.edges},
        trace_file=ch.get("trace_file"),
        instances=_instances(data["instances"], n, mg_ratings, droop_constant),
        mg_ratings=mg_ratings,
        droop_constant=droop_constant,
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    try:
        scen = parse_scenario(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if scen.trace_file:  # relative to the scenario file, not the working directory
        scen.trace_file = os.path.join(os.path.dirname(path), scen.trace_file)
    return scen


def mg_power_shares(scen: Scenario, mg_index: int, total_power_kw: float) -> list[float]:
    """Intra-MG split of one MG's total power using its rating table."""
    if scen.mg_ratings is None:
        raise ConfigError("scenario has no mgs tables")
    dgs = [
        aggregation.dg_from_rating(r, scen.droop_constant)
        for r in scen.mg_ratings[mg_index]
    ]
    return aggregation.share_power(total_power_kw, dgs)
