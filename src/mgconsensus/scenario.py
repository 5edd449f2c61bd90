"""Scenario files: schema validation and assembly into runnable pieces.

A scenario is one YAML document (schema version 1) describing topology,
controller mode and margins, per-channel attack budgets, the simulated
instances, and optional per-MG generator tables. Unknown keys are errors;
scenario files are the reproducibility contract. `_SCHEMA` is the one table
of keys: each key's type, and for each plain number its `Scenario` field,
default and range. The rules a table cannot state are code in
`parse_scenario`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Optional

import yaml

from .attacks import (
    BUDGET_RANGES, ChannelSet, DosParams, checked, generate_channel_set, load_yaml, podf_bound,
    read_channel_set,
)
from .controller import trigger
from .design import (
    certified_params, convergence_bound, global_threshold, local_threshold, lyapunov,
)
from .engine import EngineConfig
from .errors import BudgetInfeasibleError, ConfigError
from .topology import Topology, load_topology

MODES = ("nominal", "resilient-global", "resilient-local", "self-adaptive")

# a mapping where the schema has one (a null section is a missing one); a
# list, bool or str where it names that type, and a finite number where it
# names float (null is a missing key for these); any value where it has None.
# A (field, default, op, low) leaf is a number, `Scenario.field`, with
# `value op low`: a missing key takes the default, a null one is an error.
_SCHEMA: dict[str, Any] = {
    "version": None,
    "seed": None,
    "horizon": ("horizon", 60.0, ">", 0.0),  # and > activation_time
    "activation_time": ("activation_time", 0.0, ">=", 0.0),
    "record_period": ("record_period", 0.05, ">", 0.0),
    "topology": {"adjacency": list},
    "controller": {
        "mode": None,
        "eps": ("eps", 0.1, ">", 0.0),
        "rate": ("rate", 1.0, ">", 0.0),
        "eps_margin": ("eps_margin", 2.0, ">", 1.0),
        "rate_margin": ("rate_margin", 1.01, ">", 1.0),
        "alpha": ("alpha", 1.5, ">", 1.0),
        "beta": ("beta", 1.1, ">", 1.0),
    },
    "channels": {
        "delta_star_measurement": ("delta_meas", 0.01, ">", 0.0),
        "delta_star_actuation": ("delta_act", 0.01, ">", 0.0),
        "per_direction_comm": bool,
        "measurement": {"default": None, "overrides": dict},
        "actuation": {"default": None, "overrides": dict},
        "communication": {"default": None, "overrides": dict},
        "trace_file": str,
    },
    "instances": {
        "frequency": {"initial": list, "reference": float, "disturbances": list},
        "power": {"initial": list, "initial_power_kw": list, "disturbances": list},
    },
    "mgs": list,
    "droop_constant": ("droop_constant", 1.0, ">", 0.0),
}

# a scenario budget's keys: delta_star is set per channel class
_BUDGET_KEYS = {k: op for k, op in BUDGET_RANGES.items() if k != "delta_star"}

_TYPE_NAMES = {dict: "mapping", list: "list", bool: "boolean", str: "string"}


def _check_keys(data: Any, schema: dict, numbers: dict, path: str = "") -> dict:
    """`data` has only keys of `schema`, each of the type the schema gives it;
    every number leaf's checked value (or default) goes into `numbers` by field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path[:-1] or 'scenario'} must be a mapping, got {data!r}")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key '{path}{key}' in scenario file")
    for key, want in schema.items():
        sub = data.get(key)
        if isinstance(want, tuple):
            field, default, op, low = want
            numbers[field] = checked(data.get(key, default), path + key, op, low)
        elif isinstance(want, dict):
            _check_keys({} if sub is None else sub, want, numbers, f"{path}{key}.")
        elif sub is None or want is None:
            continue
        elif want is float:
            checked(sub, path + key)
        elif not isinstance(sub, want):
            raise ConfigError(f"{path}{key} must be a {_TYPE_NAMES[want]}, got {sub!r}")
    return numbers


def _mode(mode: Any) -> str:
    """`mode` if it is one of MODES; else a ConfigError."""
    if mode not in MODES:
        raise ConfigError(f"unknown controller mode '{mode}'")
    return mode


def _seed(value: Any) -> int:
    """`value` as a seed (an integer >= 0, as np.random.SeedSequence needs); else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {value!r}")
    return value


def _budget(entry: Any, where: str) -> dict:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping, got {entry!r}")
    extra = set(entry) - _BUDGET_KEYS.keys()
    if extra:
        raise ConfigError(f"unknown budget keys {sorted(extra)} in {where}")
    missing = _BUDGET_KEYS.keys() - set(entry)
    if missing:
        raise ConfigError(f"missing budget keys {sorted(missing)} in {where}")
    return {k: checked(entry[k], f"{where}.{k}", op) for k, op in _BUDGET_KEYS.items()}


def _bound(p: Optional[DosParams], where: str) -> float:
    """PoDF bound of one channel (0 without a budget); infeasible is a ConfigError."""
    try:
        return podf_bound(p) if p else 0.0
    except BudgetInfeasibleError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ResolvedDesign:
    """The offline design chain of a scenario: budgets -> PoDF bounds -> (eps, R) -> delta."""

    kind: str                                   # "nominal" | "global" | "local"
    meas: tuple[Optional[DosParams], ...]       # per node; None without a budget
    act: tuple[Optional[DosParams], ...]
    comm: dict[tuple[int, int], DosParams]      # budgeted edges, derived delta_star
    phi_meas: tuple[float, ...]
    phi_act: tuple[float, ...]
    phi_comm: dict[tuple[int, int], float]
    edge_eps: tuple[float, ...]                 # per directed edge
    edge_rate: tuple[float, ...]
    delta: float                                # target set: spread < delta

    def scaled_budgets(self, scale_class: Optional[str], intensity: float) -> tuple:
        """meas, act and comm budgets with `scale_class` rescaled by `intensity`;
        a rescaled budget without a persistency bound, or an unknown class, is a
        ConfigError."""
        meas, act, comm = self.meas, self.act, self.comm

        def scaled(p: Optional[DosParams], where: str) -> Optional[DosParams]:
            if p is None:
                return None
            q = p.scaled(intensity)
            _bound(q, f"{where} at intensity {intensity:g}")
            return q

        if scale_class == "measurement":
            meas = [scaled(p, f"channels.measurement[{i}]") for i, p in enumerate(meas)]
        elif scale_class == "actuation":
            act = [scaled(p, f"channels.actuation[{i}]") for i, p in enumerate(act)]
        elif scale_class == "communication":
            comm = {(i, j): scaled(p, f"channels.communication[{i}-{j}]")
                    for (i, j), p in comm.items()}
        elif scale_class is not None:
            raise ConfigError(f"unknown channel class '{scale_class}'")
        return meas, act, comm


@dataclass
class Scenario:
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

    def design(self) -> ResolvedDesign:
        """Resolve the offline design for the configured mode."""
        topo = self.topology
        dirs = topo.directed_edges()
        meas = tuple(DosParams(delta_star=self.delta_meas, **b) if b else None
                     for b in self.meas_budgets)
        act = tuple(DosParams(delta_star=self.delta_act, **b) if b else None
                    for b in self.act_budgets)
        phi_meas = tuple(_bound(p, f"channels.measurement[{i}]") for i, p in enumerate(meas))
        phi_act = tuple(_bound(p, f"channels.actuation[{i}]") for i, p in enumerate(act))
        ne = len(dirs)
        if self.mode == "nominal":
            kind, edge_eps, edge_rate = "nominal", (self.eps,) * ne, (self.rate,) * ne
        elif self.mode == "resilient-global":
            e, r = certified_params(
                global_threshold(max(phi_meas), max(phi_act), topo.d_max),
                self.eps_margin, self.rate_margin, self.eps,
            )
            kind, edge_eps, edge_rate = "global", (e,) * ne, (r,) * ne
        else:
            kind = "local"
            edge_eps, edge_rate = zip(*(
                certified_params(
                    local_threshold(phi_meas[i], phi_meas[j], phi_act[i],
                                    topo.degrees[i], topo.degrees[j]),
                    self.eps_margin, self.rate_margin, self.eps,
                )
                for i, j in dirs
            ))
        # The trigger law itself enforces the dwell time, so a link's minimum
        # attempt spacing is its dwell floor at d_i = d_j = d_max, with the floor
        # eps and the faster direction's rate.
        rate = dict(zip(dirs, edge_rate))
        comm = {
            (i, j): DosParams(delta_star=trigger(None, self.eps, max(rate[i, j], rate[j, i]),
                                                 topo.d_max, topo.d_max)[2], **b)
            for (i, j), b in self.comm_budgets.items() if b is not None
        }
        phi_comm = {
            (i, j): _bound(p, f"channels.communication[{i}-{j}]")
            for (i, j), p in comm.items()
        }
        return ResolvedDesign(
            kind=kind, meas=meas, act=act, comm=comm,
            phi_meas=phi_meas, phi_act=phi_act, phi_comm=phi_comm,
            edge_eps=edge_eps, edge_rate=edge_rate,
            # the target set follows the operating sensitivity: the floor for
            # the adaptive mode (it re-tunes towards it), the design value else
            delta=(self.eps if self.mode == "self-adaptive" else min(edge_eps))
            * (topo.node_count - 1),
        )

    def build_channels(
        self, scale_class: Optional[str] = None, intensity: float = 1.0
    ) -> Optional[ChannelSet]:
        """Generate (or load) the attack traces for this scenario.

        scale_class in {"measurement", "actuation", "communication"} rescales
        that class's budgets by `intensity` before generation (sweeps).
        """
        if not self.has_attacks:
            return None
        d = self.design()
        if self.trace_file:
            channels = read_channel_set(self.trace_file)
            channels.check_complete(self.topology, d.comm, self.per_direction_comm)
            # past its trace's horizon a channel would read as unattacked
            for key, seq in sorted(channels.sequences.items()):
                if seq.horizon < self.horizon:
                    raise ConfigError(f"{self.trace_file}: channel {'/'.join(map(str, key))} "
                                      f"ends at {seq.horizon:g}, before the horizon "
                                      f"{self.horizon:g}")
            return channels
        meas, act, comm = d.scaled_budgets(scale_class, intensity)
        # a node without a budget gets an unattackable placeholder trace
        meas = [p or DosParams(0.0, 0.0, 1.0, 2.0, self.delta_meas) for p in meas]
        act = [p or DosParams(0.0, 0.0, 1.0, 2.0, self.delta_act) for p in act]
        return generate_channel_set(
            self.topology, meas, act, comm, self.horizon, self.seed,
            self.per_direction_comm,
        )

    def certificate(self) -> dict:
        """The offline design as the certificate JSON that `run` and `design`
        write. Edges are keyed "i-j" and nodes "i": string keys, which the
        writer sorts as text ("10" before "2"), as a re-dump of the file does."""
        topo = self.topology
        d = self.design()
        # a uniform design reports its one (eps, R) under "all"
        keys = [f"{i}-{j}" for i, j in topo.directed_edges()] if d.kind == "local" else ["all"]
        nodes = [str(i) for i in range(topo.node_count)]
        pm, pa = max(d.phi_meas), max(d.phi_act)
        pc = max(d.phi_comm.values()) if d.phi_comm else 0.0
        # the bound must cover every instance, so it scales with the largest V(0)
        v0 = max(lyapunov(inst["initial"]) for inst in self.instances.values())
        notes, t_bound = [], None
        try:
            t_bound = convergence_bound(
                min(d.edge_eps), min(d.edge_rate), topo.d_max, topo.d_min, pc, pm, pa, v0
            )
        except Exception as exc:  # noqa: BLE001 - reported in the certificate
            notes.append(str(exc))
        for i in range(topo.node_count):
            if d.phi_meas[i] > pc + 1e-12 and pc > 0.0:
                notes.append(f"node {i}: measurement bound exceeds every comm bound")
        return {
            "mode": d.kind,
            "eps": dict(zip(keys, d.edge_eps)),
            "rate": dict(zip(keys, d.edge_rate)),
            "phi_measurement": dict(zip(nodes, d.phi_meas)),
            "phi_actuation": dict(zip(nodes, d.phi_act)),
            "phi_communication": {f"{i}-{j}": v for (i, j), v in d.phi_comm.items()},
            "phi_measurement_max": pm,
            "phi_actuation_max": pa,
            "phi_communication_max": pc,
            "phi_composite_meas_act": pm + 2.0 * pa,
            "phi_composite_comm_act": pc + 2.0 * pa,
            "delta": d.delta,
            "t_star_bound": t_bound,
            "v0": v0,
            "satisfied": t_bound is not None,
            "notes": notes,
        }

    # ---- engine assembly --------------------------------------------

    def engine_config(
        self,
        instance: str,
        channels: Optional[ChannelSet] = None,
    ) -> EngineConfig:
        """One instance run. The adaptive input scaling uses the PoDF bound of
        each actuation channel in `channels` (0 for a node without a budget)."""
        if instance not in self.instances:
            raise ConfigError(f"scenario has no '{instance}' instance")
        inst = self.instances[instance]
        d = self.design()
        phi_act = d.phi_act if channels is None else [
            _bound(channels.params[("act", i)], f"channel act/{i}") if p else 0.0
            for i, p in enumerate(d.act)
        ]
        return EngineConfig(
            topology=self.topology,
            x0=inst["initial"],
            mode=self.mode,
            eps_floor=self.eps,
            edge_eps=d.edge_eps,
            edge_rate=d.edge_rate,
            alpha=self.alpha,
            beta=self.beta,
            phi_act=phi_act,
            delta_meas=self.delta_meas,
            delta_act=self.delta_act,
            channels=channels,
            per_direction_comm=self.per_direction_comm,
            activation_time=self.activation_time,
            horizon=self.horizon,
            record_period=self.record_period,
            disturbances=inst["disturbances"],
            delta=d.delta,
        )

    def with_mode(self, mode: str) -> "Scenario":
        return replace(self, mode=_mode(mode))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=_seed(seed))


def _disturbance(ev: Any, n: int, where: str) -> tuple[float, int, float]:
    """(time, node, jump) of one disturbance entry; time >= 0, node a node id."""
    if not isinstance(ev, dict) or set(ev) != {"time", "node", "jump"}:
        raise ConfigError(f"{where} needs exactly the keys time, node and jump")
    node = ev["node"]
    if isinstance(node, bool) or not isinstance(node, int) or not 0 <= node < n:
        raise ConfigError(f"{where}.node must be a node id in 0..{n - 1}, got {node!r}")
    return (checked(ev["time"], f"{where}.time", ">=", 0.0), node,
            checked(ev["jump"], f"{where}.jump"))


def _instances(data: dict, n: int, mg_ratings, droop_constant) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name in ("frequency", "power"):
        if data.get(name) is None:
            continue
        inst = dict(data[name])
        where = f"instances.{name}"
        if inst.get("initial") is not None and inst.get("initial_power_kw") is not None:
            raise ConfigError(f"{where} sets both initial and initial_power_kw; give one")
        if name == "power" and inst.get("initial") is None:
            if inst.get("initial_power_kw") is None or mg_ratings is None:
                raise ConfigError(
                    "power instance needs 'initial' or 'initial_power_kw' plus mgs"
                )
            powers = inst.pop("initial_power_kw")
            if len(powers) != n or len(mg_ratings) != n:
                raise ConfigError("initial_power_kw and mgs must have one entry per node")
            # the MG-equivalent state: the harmonic droop c / sum(R) times the MG total
            inst["initial"] = [
                droop_constant * checked(p, f"{where}.initial_power_kw") / sum(r)
                for p, r in zip(powers, mg_ratings)
            ]
        if inst.get("initial") is None or len(inst["initial"]) != n:
            raise ConfigError(f"{where}.initial needs one state per node")
        inst["initial"] = [checked(v, f"{where}.initial") for v in inst["initial"]]
        inst["disturbances"] = [
            _disturbance(ev, n, f"{where}.disturbances[{k}]")
            for k, ev in enumerate(inst.get("disturbances") or [])
        ]
        out[name] = inst
    if not out:
        raise ConfigError("scenario defines no instances")
    return out


def parse_scenario(data: Any) -> Scenario:
    numbers = _check_keys(data, _SCHEMA, {})
    if data.get("version") != 1:
        raise ConfigError(f"unsupported scenario version {data.get('version')!r}")
    for key in ("topology.adjacency", "instances"):  # the keys no scenario does without
        node = data
        for part in key.split("."):
            node = (node or {}).get(part)
        if node is None:
            raise ConfigError(f"missing key '{key}' in scenario file")

    topo = load_topology(data["topology"]["adjacency"])
    if not topo.edges:  # no edge to run a controller on
        raise ConfigError("topology.adjacency has no link; consensus needs at least two nodes")
    n = topo.node_count
    ch = data.get("channels") or {}

    def _budgets(section: str, keys) -> list[Optional[dict]]:
        """Each key's override (by label, or a node by its id), else the default;
        an override that names no key is an error."""
        sec = ch.get(section) or {}
        over = sec.get("overrides") or {}
        labels = ["-".join(map(str, key)) if isinstance(key, tuple) else str(key) for key in keys]
        for name in over:
            if name not in labels and name not in keys:
                what = 'edge "i-j" with i < j' if section == "communication" else f"node 0..{n - 1}"
                raise ConfigError(f"channels.{section}.overrides key {name!r} names no {what}")
        out = []
        for key, label in zip(keys, labels):
            entry = over.get(label, over.get(key, sec.get("default")))
            out.append(_budget(entry, f"channels.{section}[{label}]") if entry else None)
        return out

    horizon, activation = numbers["horizon"], numbers["activation_time"]
    if horizon <= activation:
        raise ConfigError(f"horizon must be > activation_time {activation:g}, got {horizon:g}")

    mgs = data.get("mgs")
    mg_ratings = None
    if mgs is not None:
        if len(mgs) != n:
            raise ConfigError("mgs must list one generator table per node")
        mg_ratings = []
        for k, mg in enumerate(mgs):
            if not isinstance(mg, dict) or set(mg) - {"ratings_kw", "name"}:
                raise ConfigError(f"mgs[{k}] must be a mapping of ratings_kw and name")
            ratings = mg.get("ratings_kw") or []
            if not isinstance(ratings, list) or not ratings:
                raise ConfigError(f"mgs[{k}].ratings_kw must list at least one rating")
            mg_ratings.append([checked(r, f"mgs[{k}].ratings_kw", ">", 0.0) for r in ratings])

    return Scenario(
        topology=topo,
        seed=_seed(data.get("seed", 0)),
        mode=_mode((data.get("controller") or {}).get("mode", "nominal")),
        has_attacks=bool(ch),
        per_direction_comm=bool(ch.get("per_direction_comm", False)),
        meas_budgets=_budgets("measurement", range(n)),
        act_budgets=_budgets("actuation", range(n)),
        comm_budgets=dict(zip(topo.edges, _budgets("communication", topo.edges))),
        trace_file=ch.get("trace_file"),
        instances=_instances(data["instances"], n, mg_ratings, numbers["droop_constant"]),
        mg_ratings=mg_ratings,
        **numbers,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            data = load_yaml(fh)
        scen = parse_scenario(data)
    except (OSError, yaml.YAMLError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if scen.trace_file:  # relative to the scenario file, not the working directory
        scen.trace_file = os.path.join(os.path.dirname(path), scen.trace_file)
    return scen


def mg_power_shares(scen: Scenario, mg_index: int, total_power_kw: float) -> list[float]:
    """Intra-MG split of one MG's total power in proportion to its ratings: with
    each DG's droop c / R_k, every DG then sits at the MG's droop-scaled state."""
    if scen.mg_ratings is None:
        raise ConfigError("scenario has no mgs tables")
    ratings = scen.mg_ratings[mg_index]
    rating_sum = sum(ratings)
    return [total_power_kw * r / rating_sum for r in ratings]
