import copy
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from mgconsensus.errors import ConfigError
from mgconsensus.attacks import podf_bound
from mgconsensus.design import lyapunov
from mgconsensus.engine import Simulation
from mgconsensus.scenario import _SCHEMA, MODES, load_scenario, mg_power_shares, parse_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"
README = SCENARIO.parent.parent / "README.md"


@pytest.fixture(scope="module")
def data():
    with open(SCENARIO) as fh:
        return yaml.safe_load(fh)


@pytest.fixture(scope="module")
def scen():
    return load_scenario(str(SCENARIO))


def test_bundled_scenario_loads(scen):
    assert scen.topology.node_count == 4
    assert scen.mode == "self-adaptive"
    assert scen.seed == 42
    assert scen.instances.keys() == {"frequency", "power"}


def test_a_number_yaml_reads_as_a_string_loads(tmp_path):
    # PyYAML reads 3e-2 (no dot in the mantissa) as a str, and the budget as 0.03
    text = SCENARIO.read_text().replace("kappa: 0.5,", "kappa: 3e-2,")
    assert "kappa: 3e-2," in text
    path = tmp_path / "scen.yaml"
    path.write_text(text)
    assert yaml.safe_load(text)["channels"]["communication"]["default"]["kappa"] == "3e-2"
    assert load_scenario(str(path)).comm_budgets[0, 1]["kappa"] == 0.03


def test_parse_without_libyaml_gives_equal_scenario(scen, monkeypatch):
    # load_yaml takes libyaml's CSafeLoader when PyYAML has it; the pure-Python
    # SafeLoader it falls back to must read the same scenario
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_scenario(str(SCENARIO)) == scen


def test_unknown_top_level_key_rejected(data):
    bad = copy.deepcopy(data)
    bad["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        parse_scenario(bad)


def test_unknown_nested_key_rejected(data):
    bad = copy.deepcopy(data)
    bad["controller"]["zeta"] = 1.0
    with pytest.raises(ConfigError, match="controller.zeta"):
        parse_scenario(bad)


def test_unknown_budget_key_rejected(data):
    bad = copy.deepcopy(data)
    bad["channels"]["measurement"]["default"]["rho"] = 1.0
    with pytest.raises(ConfigError, match="rho"):
        parse_scenario(bad)


def test_version_is_mandatory(data):
    bad = copy.deepcopy(data)
    bad["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        parse_scenario(bad)


def test_unknown_mode_rejected(data):
    bad = copy.deepcopy(data)
    bad["controller"]["mode"] = "heroic"
    with pytest.raises(ConfigError, match="heroic"):
        parse_scenario(bad)


def test_horizon_must_exceed_activation(data):
    bad = copy.deepcopy(data)
    bad["horizon"] = 1.0
    with pytest.raises(ConfigError, match="horizon"):
        parse_scenario(bad)


@pytest.mark.parametrize("name,key,index,value,where", [
    ("frequency", "initial", 2, "hot", "instances.frequency.initial"),
    ("frequency", "initial", 0, float("nan"), "instances.frequency.initial"),
    ("power", "initial_power_kw", 0, None, "instances.power.initial_power_kw"),
    ("frequency", "disturbances", 0, {"time": 1.0, "node": 7, "jump": 0.1},
     "instances.frequency.disturbances[0].node"),
    ("frequency", "disturbances", 0, {"time": 1.0, "node": 1},
     "instances.frequency.disturbances[0]"),
    ("frequency", "disturbances", 1, {"time": -2.0, "node": 1, "jump": 0.1},
     "instances.frequency.disturbances[1].time"),
    ("frequency", "disturbances", 1, {"time": 2.0, "node": 1, "jump": "up"},
     "instances.frequency.disturbances[1].jump"),
], ids=["initial-text", "initial-nan", "initial-power-none", "disturbance-node", "disturbance-no-jump",
        "disturbance-before-start", "disturbance-jump-text"])
def test_bad_instance_entry_rejected(data, name, key, index, value, where):
    # each of these used to end in a traceback or in a run on wrong numbers
    bad = copy.deepcopy(data)
    bad["instances"][name][key][index] = value
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_scenario(bad)


def test_disturbance_after_horizon_is_ignored(data):
    late = copy.deepcopy(data)
    late["instances"]["frequency"]["disturbances"].append({"time": 61.0, "node": 3, "jump": 9.0})
    on_time = parse_scenario(data).with_mode("nominal")
    scen = parse_scenario(late).with_mode("nominal")
    assert scen.instances["frequency"]["disturbances"][-1] == (61.0, 3, 9.0)
    a = Simulation(on_time.engine_config("frequency")).run()
    b = Simulation(scen.engine_config("frequency")).run()
    np.testing.assert_array_equal(a.states, b.states)


@pytest.mark.parametrize("path,value", [
    ("controller.eps", 0.0),
    ("controller.eps", None),
    ("controller.rate", -1.0),
    ("controller.rate", "fast"),
    ("controller.eps_margin", 1.0),
    ("controller.rate_margin", 1.0),
    ("controller.alpha", 1.0),
    ("controller.beta", 0.5),
    ("record_period", 0.0),
    ("channels.delta_star_measurement", 0.0),
    ("channels.delta_star_actuation", -0.01),
    ("channels.measurement.default.tau_d", 0.0),
    ("channels.actuation.default.tau_f", -10.0),
    ("channels.communication.default.kappa", -0.5),
    ("channels.measurement.default.eta", -1.0),
    ("activation_time", -1.0),
    ("horizon", "soon"),
    ("horizon", float("inf")),
    ("seed", "abc"),
    ("seed", -1),
    ("droop_constant", 0.0),
    ("droop_constant", None),
    ("instances.frequency.reference", "hot"),
])
def test_out_of_range_number_rejected(data, path, value):
    bad = copy.deepcopy(data)
    *parents, key = path.split(".")
    node = bad
    for part in parents:
        node = node[part]
    node[key] = value
    # a budget error names the channel: channels.<section>[<label>].<key>
    name = path.replace(".default.", "[0-1]." if "communication" in path else "[0].")
    with pytest.raises(ConfigError, match=re.escape(name)):
        parse_scenario(bad)


def test_null_controller_takes_every_default(data):
    bare = copy.deepcopy(data)
    bare["controller"] = None
    scen = parse_scenario(bare)
    assert (scen.mode, scen.eps, scen.rate, scen.eps_margin, scen.rate_margin, scen.alpha,
            scen.beta) == ("nominal", 0.1, 1.0, 2.0, 1.01, 1.5, 1.1)
    del bare["controller"]
    assert parse_scenario(bare) == scen


def _number_rows(schema: dict, path: str = ""):
    """(key, default, range) of each number leaf of `schema`, as README writes them."""
    for key, want in schema.items():
        if isinstance(want, dict):
            yield from _number_rows(want, f"{path}{key}.")
        elif isinstance(want, tuple):
            _, default, op, low = want
            yield path + key, f"{default:g}", f"{'≥' if op == '>=' else '>'} {low:g}"


def test_readme_range_table_matches_schema():
    # both ways: every number of the table has its README row, and every README
    # row of one key and a plain "op bound" range is a number of the table
    rows = re.findall(r"^\| `([\w.]+)` \| (\S+) \| ([>≥] [\d.]+)", README.read_text(), re.M)
    assert sorted(rows) == sorted(_number_rows(_SCHEMA))


def test_power_initial_derived_from_ratings(scen):
    # droop-scaled totals: c * P / sum(ratings)
    assert scen.instances["power"]["initial"] == pytest.approx(
        [40 / 80, 36 / 80, 28 / 70, 21 / 35]
    )


def test_phi_bounds_match_reference_budgets(scen):
    d = scen.design()
    assert d.phi_meas == pytest.approx((0.0526,) * 4)
    assert d.phi_act == pytest.approx((0.0526,) * 4)
    assert [p.delta_star for p in d.meas + d.act] == [0.01] * 8


def test_design_resolution_per_mode(scen):
    g = scen.with_mode("resilient-global").design()
    assert g.kind == "global"
    assert g.edge_eps == pytest.approx((1.2624,) * 8)
    assert g.edge_rate == pytest.approx((1.01,) * 8)
    nom = scen.with_mode("nominal").design()
    assert nom.kind == "nominal"
    assert nom.edge_eps == (0.1,) * 8 and nom.edge_rate == (1.0,) * 8
    # the ring is regular with uniform budgets: local equals global
    loc = scen.with_mode("resilient-local").design()
    assert loc.kind == "local"
    assert loc.edge_eps == pytest.approx(g.edge_eps)
    assert loc.edge_rate == pytest.approx(g.edge_rate)
    # target set: the design value, except the adaptive mode's floor
    assert g.delta == pytest.approx(1.2624 * 3) and nom.delta == 0.1 * 3
    assert scen.design().delta == 0.1 * 3


def test_comm_delta_star_derived_from_trigger_law(scen):
    d = scen.design()
    assert set(d.comm) == set(d.phi_comm) == set(scen.topology.edges)
    assert d.comm[(0, 1)].delta_star == pytest.approx(0.1 / (4 * 1.01 * 2))
    assert d.phi_comm[(0, 1)] == pytest.approx(podf_bound(d.comm[(0, 1)]))


def test_channels_deterministic_per_seed(scen):
    a, b, c = ({key: (seq.intervals, seq.horizon)
                for key, seq in scen.with_seed(seed).build_channels().sequences.items()}
               for seed in (5, 5, 6))
    assert a == b
    assert a != c


def test_certificate_satisfied(scen):
    cert = scen.certificate()
    assert cert["satisfied"]
    assert cert["phi_measurement_max"] == pytest.approx(0.0526)
    assert cert["t_star_bound"] is not None and cert["t_star_bound"] > 0


def test_certificate_v0_covers_every_instance(data, scen):
    # the bundled frequency V(0) is the larger one, so it sets the bound there
    assert scen.certificate()["v0"] == lyapunov(scen.instances["frequency"]["initial"])
    power_only = copy.deepcopy(data)
    del power_only["instances"]["frequency"]
    s = parse_scenario(power_only)
    cert = s.certificate()
    assert cert["v0"] == lyapunov(s.instances["power"]["initial"]) > 0.0
    assert cert["satisfied"] and cert["t_star_bound"] > 0.0


@pytest.mark.parametrize("mode", MODES)
def test_certificate_delta_is_engine_delta(scen, mode):
    s = scen.with_mode(mode)
    m = Simulation(s.engine_config("frequency", s.build_channels())).run()
    assert s.certificate()["delta"] == m.delta


def test_engine_config_modes(scen):
    cfg = scen.with_mode("resilient-global").engine_config("frequency", None)
    assert cfg.mode == "resilient-global"
    assert cfg.edge_eps == pytest.approx((1.2624,) * 8)
    # target set follows the operating sensitivity
    assert cfg.delta == pytest.approx(1.2624 * 3)
    cfg_a = scen.engine_config("frequency", None)
    assert cfg_a.delta == pytest.approx(0.1 * 3)


def test_engine_config_phi_act_from_channels(scen):
    d = scen.design()
    channels = scen.build_channels("actuation", 0.5)
    cfg = scen.engine_config("frequency", channels)
    assert cfg.phi_act == [podf_bound(p.scaled(0.5)) for p in d.act]
    assert cfg.phi_act[0] < d.phi_act[0]
    assert scen.engine_config("frequency", scen.build_channels()).phi_act == list(d.phi_act)


def test_placeholder_actuation_uses_its_own_delta_star(data):
    # nodes without a budget get unattackable traces at their channel's delta*
    bare = copy.deepcopy(data)
    del bare["channels"]["actuation"]
    bare["channels"]["delta_star_actuation"] = 0.02
    scen = parse_scenario(bare)
    channels = scen.build_channels()
    for i in range(4):
        assert channels.params[("act", i)].delta_star == 0.02
        assert channels.params[("meas", i)].delta_star == 0.01
        assert channels.sequences[("act", i)].intervals == ()
    assert scen.engine_config("frequency", channels).phi_act == [0.0] * 4


def test_missing_instance_rejected(scen):
    with pytest.raises(ConfigError, match="no 'voltage'"):
        scen.engine_config("voltage", None)


def test_mg_power_shares(scen):
    shares = mg_power_shares(scen, 1, 80.0)
    assert shares == pytest.approx([20.0, 20.0, 15.0, 15.0, 10.0])


def test_mg_power_shares_proportional_to_ratings(scen):
    # P R_k / sum(R): the MG total split at one per-unit load, in the ratings' ratio
    for k, ratings in enumerate(scen.mg_ratings):
        shares = mg_power_shares(scen, k, 50.0)
        assert sum(shares) == pytest.approx(50.0)
        assert [s / r for s, r in zip(shares, ratings)] == \
            pytest.approx([50.0 / sum(ratings)] * len(ratings))
    shares = mg_power_shares(scen, 1, 80.0)
    assert [s / shares[-1] for s in shares] == pytest.approx([2.0, 2.0, 1.5, 1.5, 1.0])


def test_budget_overrides_by_node_and_edge(data):
    case = copy.deepcopy(data)
    weak = {"eta": 0.5, "kappa": 0.01, "tau_f": 20.0, "tau_d": 50.0}
    case["channels"]["measurement"]["overrides"] = {"2": weak, 3: weak}
    case["channels"]["communication"]["overrides"] = {"1-2": weak, "0-3": {}}
    scen = parse_scenario(case)
    assert scen.meas_budgets[0] == data["channels"]["measurement"]["default"]
    assert scen.meas_budgets[2] == scen.meas_budgets[3] == weak
    assert scen.comm_budgets[(1, 2)] == weak and scen.comm_budgets[(0, 3)] is None
    assert scen.comm_budgets[(0, 1)] == data["channels"]["communication"]["default"]
    with pytest.raises(ConfigError, match=r"channels\.communication\[1-2\]"):
        case["channels"]["communication"]["overrides"]["1-2"] = {"eta": 1.0}
        parse_scenario(case)


@pytest.mark.parametrize("section,key", [
    ("measurement", "7"),
    ("actuation", 4),
    ("communication", "0-2"),       # no such link on the ring
    ("communication", "1-0"),       # a link is named with i < j
], ids=["measurement-node-7", "actuation-node-4", "communication-0-2", "communication-1-0"])
def test_override_that_names_no_channel_is_rejected(data, section, key):
    # such an override used to be dropped, and the channel ran on the default
    case = copy.deepcopy(data)
    weak = {"eta": 0.5, "kappa": 0.01, "tau_f": 20.0, "tau_d": 50.0}
    case["channels"][section]["overrides"] = {key: weak}
    with pytest.raises(ConfigError, match=re.escape(f"channels.{section}.overrides key {key!r}")):
        parse_scenario(case)


def test_power_instance_with_both_initial_states_is_rejected(data):
    # `initial` used to win and `initial_power_kw` was ignored
    case = copy.deepcopy(data)
    case["instances"]["power"]["initial"] = [1.0, 1.1, 0.9, 1.0]
    with pytest.raises(ConfigError, match="instances.power sets both initial and initial_power_kw"):
        parse_scenario(case)
    del case["instances"]["power"]["initial_power_kw"]
    assert parse_scenario(case).instances["power"]["initial"] == [1.0, 1.1, 0.9, 1.0]


def test_attack_free_when_channels_absent(data):
    bare = copy.deepcopy(data)
    del bare["channels"]
    bare["controller"]["mode"] = "nominal"
    scen = parse_scenario(bare)
    assert not scen.has_attacks
    assert scen.build_channels() is None


@pytest.mark.parametrize("mode", ["nominal", "self-adaptive"])
def test_power_sharing_from_outside_target_set(data, mode):
    # criterion 8's bundled power instance starts inside delta (spread 0.2 <
    # 0.3); this one starts at spread 0.8, so consensus has to be reached
    case = copy.deepcopy(data)
    case["instances"]["power"]["initial_power_kw"] = [40.0, 36.0, 28.0, 42.0]
    scen = parse_scenario(case).with_mode(mode)
    x0 = scen.instances["power"]["initial"]
    assert max(x0) - min(x0) == pytest.approx(0.8)
    m = Simulation(scen.engine_config("power", scen.build_channels())).run()
    assert m.converged
    assert m.entry_time > scen.activation_time
    total_kw = m.states[-1][1] * sum(scen.mg_ratings[1]) / scen.droop_constant
    shares = np.array(mg_power_shares(scen, 1, total_kw))
    target = np.array([4.0, 4.0, 3.0, 3.0, 2.0])
    ratio = shares / shares[-1] * target[-1]
    assert np.max(np.abs(ratio - target) / target) < 0.01
