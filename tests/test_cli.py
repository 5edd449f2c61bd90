import json
from pathlib import Path

import pytest
import yaml

from mgconsensus import cli
from mgconsensus.cli import main

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"


@pytest.fixture()
def fast_scenario(tmp_path):
    """Bundled scenario shrunk for CLI round trips."""
    with open(SCENARIO) as fh:
        data = yaml.safe_load(fh)
    data["horizon"] = 12.0
    data["activation_time"] = 1.0
    data["instances"]["frequency"]["disturbances"] = []
    path = tmp_path / "fast.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_run_writes_outputs(fast_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(fast_scenario), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["instances"]) == {"frequency", "power"}
    assert summary["certificate"]["satisfied"] is True
    for name in ("frequency", "power"):
        assert (out / f"{name}_trace.csv").exists()
        assert (out / f"{name}_events.csv").exists()
        assert (out / f"{name}_metrics.json").exists()
    header = (out / "frequency_trace.csv").read_text().splitlines()[0]
    assert header == "time,x0,x1,x2,x3,u0,u1,u2,u3"


def test_run_byte_identical(fast_scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(fast_scenario), "--out", str(a)]) == 0
    assert main(["run", str(fast_scenario), "--out", str(b)]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_run_seed_changes_trace(fast_scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(fast_scenario), "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", str(fast_scenario), "--out", str(b), "--seed", "2"]) == 0
    assert (a / "attack_trace.json").read_bytes() != (b / "attack_trace.json").read_bytes()


def test_design_command(fast_scenario, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert main(["design", str(fast_scenario), "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["satisfied"] is True
    assert cert["eps"]  # resolved design present


def test_attacks_generate_and_verify(fast_scenario, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    assert main(["attacks", "verify", str(trace)]) == 0


def test_attacks_verify_rejects_tampering(fast_scenario, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    data = json.loads(trace.read_text())
    key = next(k for k in data if data[k]["intervals"])
    # replace the windows with one far beyond the duration budget
    data[key]["intervals"] = [[1.0, 11.0]]
    trace.write_text(json.dumps(data))
    assert main(["attacks", "verify", str(trace)]) == 1


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\nunknown_key: true\n")
    assert main(["run", str(bad)]) == 2


@pytest.mark.parametrize("key,edit", [
    ("activation_time", lambda d: d.update(activation_time=-1.0)),
    ("instances.frequency.disturbances[0].node",
     lambda d: d["instances"]["frequency"].update(disturbances=[{"time": 2.0, "node": 7,
                                                                 "jump": 0.1}])),
    ("mgs[0].ratings_kw", lambda d: d["mgs"][0].update(ratings_kw=[])),
    ("horizon", lambda d: d.update(horizon="long")),
], ids=["activation-negative", "disturbance-node", "ratings-empty", "horizon-text"])
def test_bad_scenario_value_exits_2_naming_its_key(fast_scenario, tmp_path, capsys, key, edit):
    data = yaml.safe_load(fast_scenario.read_text())
    edit(data)
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "variant", ["bundled", "no-comm-budget", "empty-override", "per-direction"]
)
def test_trace_file_must_cover_every_channel(fast_scenario, tmp_path, variant):
    """A generated trace runs as `trace_file`; one without a channel is rejected."""
    data = yaml.safe_load(fast_scenario.read_text())
    if variant == "no-comm-budget":
        del data["channels"]["communication"]
    elif variant == "empty-override":
        data["channels"]["communication"]["overrides"] = {"0-1": {}}
    elif variant == "per-direction":
        data["channels"]["per_direction_comm"] = True
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(scen), "--out", str(trace)]) == 0
    data["channels"]["trace_file"] = str(trace)
    scen.write_text(yaml.safe_dump(data))
    run = ["run", str(scen), "--mode", "resilient-local", "--instance", "frequency",
           "--out", str(tmp_path / "out")]
    assert main(run) == 0
    channels = json.loads(trace.read_text())
    if variant == "per-direction":
        # each direction of a link is its own channel
        assert {"comm/0/1", "comm/1/0", "comm/2/3", "comm/3/2"} <= set(channels)
        trace.write_text(json.dumps({k: v for k, v in channels.items() if k != "comm/1/0"}))
        assert main(run) == 2
    del channels["act/0"]
    trace.write_text(json.dumps(channels))
    assert main(run) == 2


def test_trace_file_relative_to_scenario(fast_scenario, tmp_path, monkeypatch):
    scen_dir = tmp_path / "scen"
    scen_dir.mkdir()
    assert main(["attacks", "generate", str(fast_scenario),
                 "--out", str(scen_dir / "trace.json")]) == 0
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = "trace.json"
    scen = scen_dir / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    monkeypatch.chdir(tmp_path)  # a working directory without trace.json
    out = tmp_path / "out"
    assert main(["run", str(scen), "--instance", "frequency", "--out", str(out)]) == 0
    assert (out / "attack_trace.json").read_bytes() == (scen_dir / "trace.json").read_bytes()


def test_missing_trace_file_is_config_error(fast_scenario, tmp_path):
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = "no_such_trace.json"
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2


def test_mode_override(fast_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(fast_scenario), "--mode", "resilient-global",
               "--instance", "frequency", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "resilient-global"
    assert list(summary["instances"]) == ["frequency"]


def test_sweep_smoke(fast_scenario, tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep", str(fast_scenario), "--seeds", "3",
               "--classes", "actuation", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "actuation" in data["reduced"]


@pytest.mark.parametrize("command", ["run", "attacks generate"])
def test_negative_seed_flag_is_config_error(fast_scenario, tmp_path, capsys, command):
    argv = command.split() + [str(fast_scenario), "--seed", "-1", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_sweep_needs_a_seed(fast_scenario, capsys):
    assert main(["sweep", str(fast_scenario), "--seeds", "0"]) == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err


def test_sweep_writes_null_when_no_seed_converges(fast_scenario, tmp_path):
    # a kick at the horizon leaves every run outside the target set at its end
    data = yaml.safe_load(fast_scenario.read_text())
    data["instances"]["frequency"]["disturbances"] = [{"time": 12.0, "node": 0, "jump": 5.0}]
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    out = tmp_path / "sweep.json"
    assert main(["sweep", str(scen), "--seeds", "2", "--classes", "actuation",
                 "--out", str(out)]) == 0

    def no_constant(name):
        raise AssertionError(f"sweep.json holds {name}, which is not JSON")

    result = json.loads(out.read_text(), parse_constant=no_constant)
    assert result["baseline"] == {"median_entry_time": None, "unconverged": 2}
    assert result["reduced"]["actuation"] == {
        "median_entry_time": None, "unconverged": 2, "improvement": None}


@pytest.mark.parametrize("command", ["run", "design", "attacks generate", "sweep"])
@pytest.mark.parametrize("section,channel", [
    ("measurement", "channels.measurement[0]"),
    ("communication", "channels.communication[0-1]"),
])
def test_infeasible_budget_is_config_error(fast_scenario, tmp_path, capsys,
                                           command, section, channel):
    # duty ratio 1/tau_d + delta*/tau_f >= 1 admits no persistency bound
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"][section]["default"]["tau_d"] = 1.0
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    argv = command.split() + [str(scen), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--seeds", "1", "--classes", "measurement"]
    assert main(argv) == 2
    assert channel in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "design"])
@pytest.mark.parametrize("section,key,value,name", [
    ("measurement", "tau_d", 0.0, "channels.measurement[0].tau_d"),
    ("actuation", "kappa", -0.1, "channels.actuation[0].kappa"),
    ("communication", "tau_f", 0.0, "channels.communication[0-1].tau_f"),
    (None, "delta_star_measurement", 0.0, "channels.delta_star_measurement"),
])
def test_out_of_range_budget_is_config_error(fast_scenario, tmp_path, capsys,
                                             command, section, key, value, name):
    data = yaml.safe_load(fast_scenario.read_text())
    (data["channels"][section]["default"] if section else data["channels"])[key] = value
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main([command, str(scen), "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("intensity,message", [
    ("0", "--intensity must be > 0"),
    # duty ratio 30/25 + 30 * 0.01/10 = 1.23 admits no persistency bound
    ("30", "channels.measurement[0] at intensity 30"),
])
def test_sweep_intensity_out_of_range_is_config_error(fast_scenario, capsys,
                                                      intensity, message):
    argv = ["sweep", str(fast_scenario), "--seeds", "1", "--classes", "measurement",
            "--intensity", intensity]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_sweep_checks_every_class_budget_before_any_run(fast_scenario, capsys, monkeypatch):
    # the actuation class fails at intensity 30 (duty ratio 1.23): that is
    # reported before the first engine run, not after the baseline seeds
    def no_run(cfg):
        raise AssertionError("engine run before the budget check")

    monkeypatch.setattr(cli, "Simulation", no_run)
    argv = ["sweep", str(fast_scenario), "--seeds", "20",
            "--classes", "actuation,measurement", "--intensity", "30"]
    assert main(argv) == 2
    assert "channels.actuation[0] at intensity 30" in capsys.readouterr().err


def _no_run(cfg):
    raise AssertionError("engine run before the configuration check")


@pytest.mark.parametrize("classes", ["actuation", "bogus"])
def test_sweep_on_a_trace_file_scenario_is_config_error(fast_scenario, tmp_path, capsys,
                                                        monkeypatch, classes):
    # a fixed trace cannot be rescaled: every class would report +0.0000
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = str(trace)
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    monkeypatch.setattr(cli, "Simulation", _no_run)
    out = tmp_path / "sweep.json"
    argv = ["sweep", str(scen), "--seeds", "2", "--classes", classes, "--out", str(out)]
    assert main(argv) == 2
    assert "channels.trace_file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("attacks", [True, False], ids=["attacks", "no-attacks"])
def test_sweep_unknown_class_is_config_error(fast_scenario, tmp_path, capsys, monkeypatch,
                                             attacks):
    data = yaml.safe_load(fast_scenario.read_text())
    if not attacks:
        del data["channels"]
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    monkeypatch.setattr(cli, "Simulation", _no_run)
    argv = ["sweep", str(scen), "--seeds", "2", "--classes", "actuation,bogus"]
    assert main(argv) == 2
    assert "unknown channel class 'bogus'" in capsys.readouterr().err


def test_run_unknown_instance_writes_nothing(fast_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(fast_scenario), "--instance", "bogus", "--out", str(out)]) == 2
    assert "no 'bogus' instance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", '{"meas/0": {}}'])
def test_verify_reports_unreadable_trace(tmp_path, capsys, content):
    trace = tmp_path / "trace.json"
    if content is not None:
        trace.write_text(content)
    assert main(["attacks", "verify", str(trace)]) == 1
    assert "malformed trace:" in capsys.readouterr().err


NON_FINITE = [("params", "eta", float("nan")), ("params", "kappa", float("nan")),
              ("params", "tau_d", float("inf")), (None, "horizon", float("inf"))]
NON_FINITE_IDS = ["eta-nan", "kappa-nan", "tau_d-inf", "horizon-inf"]


def _non_finite_trace(scenario, path: Path, where, key, value) -> Path:
    """A generated trace with one value of channel act/0 made non-finite."""
    assert main(["attacks", "generate", str(scenario), "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    entry = data["act/0"] if where is None else data["act/0"][where]
    entry[key] = value
    path.write_text(json.dumps(data))  # NaN and Infinity, as json.load reads them
    return path


@pytest.mark.parametrize("where, key, value", NON_FINITE, ids=NON_FINITE_IDS)
def test_verify_rejects_non_finite_budget(fast_scenario, tmp_path, capsys, where, key, value):
    # a NaN budget compares false against every bound, so it passed the audit
    trace = _non_finite_trace(fast_scenario, tmp_path / "trace.json", where, key, value)
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == 1
    captured = capsys.readouterr()
    assert "malformed trace:" in captured.err and "nan" not in captured.out


@pytest.mark.parametrize("where, key, value", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_budget_trace_file_is_config_error(fast_scenario, tmp_path, capsys,
                                                      where, key, value):
    _non_finite_trace(fast_scenario, tmp_path / "trace.json", where, key, value)
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = "trace.json"
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_undecodable_trace_file_is_config_error(fast_scenario, tmp_path):
    data = yaml.safe_load(fast_scenario.read_text())
    (tmp_path / "trace.json").write_text("{not json")
    data["channels"]["trace_file"] = "trace.json"
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2


def test_verify_reads_yaml_trace(fast_scenario, tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    as_yaml = tmp_path / "trace.yaml"
    as_yaml.write_text(yaml.safe_dump(json.loads(trace.read_text())))
    assert main(["attacks", "verify", str(as_yaml)]) == 0
