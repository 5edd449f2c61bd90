import gc
import json
import tracemalloc
from pathlib import Path

import pytest
import yaml

from mgconsensus import cli
from mgconsensus.cli import main
from mgconsensus.scenario import _SCHEMA, MODES, Scenario
from test_scenario import _number_rows

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


def _set(key):
    """An edit of the scenario that sets the dotted `key`, whose parts may be
    list indices, to true."""
    def edit(data):
        *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]
        for k in parents:
            data = data[k]
        data[last] = True
    return edit


# YAML reads true, yes and on as booleans, and float(True) is 1.0: a boolean
# eps designed and ran with eps = 1. Each number of the schema, then the
# numbers `parse_scenario` checks itself
_BOOLEANS = [(key, _set(key)) for key, *_ in _number_rows(_SCHEMA)] + [
    ("instances.frequency.reference", _set("instances.frequency.reference")),
    ("channels.measurement[0].eta", _set("channels.measurement.default.eta")),
    ("channels.communication[0-1].tau_d", _set("channels.communication.default.tau_d")),
    ("instances.frequency.initial", _set("instances.frequency.initial.0")),
    ("instances.power.initial_power_kw", _set("instances.power.initial_power_kw.3")),
    ("instances.frequency.disturbances[0].time",
     lambda d: d["instances"]["frequency"].update(disturbances=[{"time": True, "node": 0,
                                                                 "jump": 0.1}])),
    ("instances.frequency.disturbances[0].jump",
     lambda d: d["instances"]["frequency"].update(disturbances=[{"time": 2.0, "node": 0,
                                                                 "jump": True}])),
    ("mgs[1].ratings_kw", _set("mgs.1.ratings_kw.0")),
]


@pytest.mark.parametrize("key,edit", [
    ("activation_time", lambda d: d.update(activation_time=-1.0)),
    ("instances.frequency.disturbances[0].node",
     lambda d: d["instances"]["frequency"].update(disturbances=[{"time": 2.0, "node": 7,
                                                                 "jump": 0.1}])),
    ("mgs[0].ratings_kw", lambda d: d["mgs"][0].update(ratings_kw=[])),
    ("horizon", lambda d: d.update(horizon="long")),
] + [(f"{key} must be a finite number, got True", edit) for key, edit in _BOOLEANS],
    ids=["activation-negative", "disturbance-node", "ratings-empty", "horizon-text"]
    + [f"{key}-true" for key, _ in _BOOLEANS])
def test_bad_scenario_value_exits_2_naming_its_key(fast_scenario, tmp_path, capsys, key, edit):
    data = yaml.safe_load(fast_scenario.read_text())
    edit(data)
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


_DROP = object()


def _with(key, value):
    """A writer of the fast scenario with the dotted `key` set to `value`, or
    dropped."""
    def write(path: Path, data: dict) -> Path:
        *parents, last = key.split(".")
        node = data
        for k in parents:
            node = node[k]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        path.write_text(yaml.safe_dump(data))
        return path
    return write


def _unparsable(path: Path, data: dict) -> Path:
    path.write_text("version: 1\ntopology: {adjacency: [[0]\n")
    return path


@pytest.mark.parametrize("named,write", [
    ("scen.yaml", lambda path, data: path),  # no file written
    ("scen.yaml", _unparsable),
    ("'topology.adjacency'", _with("topology", _DROP)),
    ("'topology.adjacency'", _with("topology.adjacency", _DROP)),
    ("'instances'", _with("instances", _DROP)),
    ("topology must be a mapping", _with("topology", [1])),
    ("'topology.adjacency'", _with("topology.adjacency", None)),
    ("channels must be a mapping", _with("channels", [1])),
    ("controller must be a mapping", _with("controller", ["self-adaptive"])),
    ("channels.measurement must be a mapping", _with("channels.measurement", [{"eta": 1.0}])),
    ("channels.measurement.overrides must be a mapping",
     _with("channels.measurement.overrides", [{"eta": 1.0}])),
    ("instances.frequency must be a mapping", _with("instances.frequency", [49.8])),
    ("instances.frequency.initial", _with("instances.frequency.initial", None)),
    ("instances.frequency.disturbances must be a list",
     _with("instances.frequency.disturbances", 5)),
    ("mgs must be a list", _with("mgs", 5)),
    # a quoted 'no' is a true string, and would give each link direction a channel
    ("channels.per_direction_comm must be a boolean", _with("channels.per_direction_comm", "no")),
    ("channels.trace_file must be a string", _with("channels.trace_file", 5)),
    ("topology.adjacency", _with("topology.adjacency", [1])),
    ("topology.adjacency", _with("topology.adjacency", [[0, "a"], ["a", 0]])),
    ("topology.adjacency", _with("topology.adjacency", [[0, float("nan")], [float("nan"), 0]])),
    ("topology.adjacency", _with("topology.adjacency", [[0, float("inf")], [float("inf"), 0]])),
    ("topology.adjacency", _with("topology.adjacency", [[0, True], [True, 0]])),
    ("channels.communication.overrides key '0-2' names no edge",
     _with("channels.communication.overrides", {"0-2": {}})),
], ids=["missing-file", "yaml-syntax", "no-topology", "no-adjacency", "no-instances",
        "topology-list", "adjacency-null", "channels-list", "controller-list",
        "measurement-list", "overrides-list", "frequency-list", "initial-null",
        "disturbances-number", "mgs-number", "per-direction-string", "trace-file-number",
        "adjacency-row-number", "adjacency-entry-string", "adjacency-entry-nan",
        "adjacency-entry-inf", "adjacency-entry-bool", "override-no-edge"])
def test_malformed_scenario_exits_2_naming_its_key(fast_scenario, tmp_path, capsys, named,
                                                   write):
    scen = write(tmp_path / "scen.yaml", yaml.safe_load(fast_scenario.read_text()))
    for argv in (["run", str(scen), "--out", str(tmp_path / "out")],
                 ["attacks", "generate", str(scen)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    ("inf", "--intensity must be > 0 and finite"),
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


def test_attacks_generate_on_a_trace_file_scenario_is_config_error(fast_scenario, tmp_path,
                                                                   capsys):
    # the generator copied the fixed trace and ignored --seed
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = str(trace)
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    capsys.readouterr()
    out = tmp_path / "new" / "t.json"
    assert main(["attacks", "generate", str(scen), "--seed", "5", "--out", str(out)]) == 2
    assert "channels.trace_file" in capsys.readouterr().err
    assert not out.parent.exists()


_OUT_COMMANDS = {
    "design": ["design"],
    "attacks generate": ["attacks", "generate"],
    "sweep": ["sweep", "--seeds", "1", "--classes", "actuation"],
}


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_into_a_missing_directory_makes_it(fast_scenario, tmp_path, command):
    out = tmp_path / "new" / "dir" / "out.json"
    argv = _OUT_COMMANDS[command] + [str(fast_scenario), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_unwritable_out_exits_2_before_any_run(fast_scenario, tmp_path, capsys, monkeypatch,
                                              command):
    # a file where the output's directory should be: a one-line error, exit 2
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(cli, "Simulation", _no_run)
    argv = _OUT_COMMANDS[command] + [str(fast_scenario), "--out",
                                     str(tmp_path / "taken" / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and "taken" in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("classes,message", [
    ("", "--classes must name each class once, got ''"),
    (" , ", "--classes must name each class once, got ' , '"),
    ("measurement,measurement", "got 'measurement,measurement'"),
    ("actuation, measurement ,actuation", "got 'actuation, measurement ,actuation'"),
], ids=["empty", "blank", "repeated", "repeated-with-spaces"])
def test_sweep_needs_each_class_once(fast_scenario, capsys, monkeypatch, classes, message):
    # no class would run only the baseline, and a repeated one runs and prints
    # twice: both are configuration errors before any run
    monkeypatch.setattr(cli, "Simulation", _no_run)
    argv = ["sweep", str(fast_scenario), "--seeds", "2", "--classes", classes]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_sweep_keeps_no_run_past_its_entry_time():
    # each seed's run is dropped once its entry time is read, so the peak of a
    # sweep does not grow with its seed count
    argv = ["sweep", str(SCENARIO), "--classes", "measurement", "--seeds"]
    assert main(argv + ["1"]) == 0  # warm-up: imports and caches
    peaks = []
    tracemalloc.start()
    try:
        for seeds in ("1", "3"):
            gc.collect()  # so that no garbage of an earlier call counts
            tracemalloc.reset_peak()
            assert main(argv + [seeds]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_sweep_checks_the_instance_before_any_work(fast_scenario, tmp_path, capsys,
                                                  monkeypatch):
    # an unknown instance is reported before any trace is generated or any
    # output directory is made, as `run` does
    def no_channels(*args, **kwargs):
        raise AssertionError("traces generated before the instance check")

    monkeypatch.setattr(Scenario, "build_channels", no_channels)
    out = tmp_path / "d" / "sweep.json"
    argv = ["sweep", str(fast_scenario), "--instance", "voltage", "--out", str(out)]
    assert main(argv) == 2
    assert "no 'voltage' instance" in capsys.readouterr().err
    assert not out.parent.exists()


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


@pytest.mark.parametrize("intervals, ok", [
    ([1.0, 2.0], False), ([[1.0, 2.0, 3.0]], False), ([[1.0]], False), ([[]], False),
    (None, False), ([[None, 2.0]], False), ([[1.0, 2.0], [3.0]], False),
    ([[[1.0, 2.0]]], False), ([], True), ([[1.0, 2.0], [2.0, 3.0]], True),
], ids=["flat", "triple", "single", "empty-pair", "null", "null-start", "ragged", "nested",
        "no-windows", "touching"])
def test_verify_checks_the_shape_of_intervals(fast_scenario, tmp_path, capsys, intervals, ok):
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    data = json.loads(trace.read_text())
    # a budget the touching windows keep, so only the windows' shape decides
    data["act/0"]["params"].update(eta=5.0, kappa=5.0, tau_f=10.0, tau_d=10.0)
    data["act/0"]["intervals"] = intervals
    trace.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == (0 if ok else 1)
    captured = capsys.readouterr()
    assert ("malformed trace:" in captured.err) != ok
    assert ("act/0: ok" in captured.out) == ok


NON_FINITE = [("params", "eta", float("nan")), ("params", "kappa", float("nan")),
              ("params", "tau_d", float("inf")), (None, "horizon", float("inf"))]
NON_FINITE_IDS = ["eta-nan", "kappa-nan", "tau_d-inf", "horizon-inf"]


def _trace_with(scenario, path: Path, where, key, value) -> Path:
    """A generated trace with one value of channel act/0 set to `value`."""
    assert main(["attacks", "generate", str(scenario), "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    entry = data["act/0"] if where is None else data["act/0"][where]
    entry[key] = value
    path.write_text(json.dumps(data))  # NaN and Infinity, as json.load reads them
    return path


@pytest.mark.parametrize("where, key, value", NON_FINITE, ids=NON_FINITE_IDS)
def test_verify_rejects_non_finite_budget(fast_scenario, tmp_path, capsys, where, key, value):
    # a NaN budget compares false against every bound, so it passed the audit
    trace = _trace_with(fast_scenario, tmp_path / "trace.json", where, key, value)
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == 1
    captured = capsys.readouterr()
    assert "malformed trace:" in captured.err and "nan" not in captured.out


@pytest.mark.parametrize("where, key, value", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_budget_trace_file_is_config_error(fast_scenario, tmp_path, capsys,
                                                      where, key, value):
    _trace_with(fast_scenario, tmp_path / "trace.json", where, key, value)
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = "trace.json"
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("where, key", [("params", "eta"), (None, "horizon")],
                         ids=["eta", "horizon"])
def test_verify_rejects_a_boolean_number(fast_scenario, tmp_path, capsys, where, key):
    # JSON true read as 1.0, and the trace passed its audit
    trace = _trace_with(fast_scenario, tmp_path / "trace.json", where, key, True)
    data = json.loads(trace.read_text())
    data["act/0"]["intervals"] = []  # no window then ends past a 1 s horizon
    trace.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "malformed trace:" in err and f"{key} must be a finite number, got True" in err


BOOL_BOUNDS = [[[True, 2.0]], [[0.5, True]]]


@pytest.mark.parametrize("intervals", BOOL_BOUNDS, ids=["start", "end"])
def test_verify_rejects_a_boolean_window_bound(fast_scenario, tmp_path, capsys, intervals):
    # numpy read true as 1.0, and the trace passed its audit
    trace = _trace_with(fast_scenario, tmp_path / "trace.json", None, "intervals", intervals)
    data = json.loads(trace.read_text())
    # a budget the window keeps, so only the bound's type decides
    data["act/0"]["params"].update(eta=5.0, kappa=5.0, tau_f=10.0, tau_d=10.0)
    trace.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "malformed trace:" in err and "channel act/0" in err and "boolean" in err


@pytest.mark.parametrize("intervals", BOOL_BOUNDS, ids=["start", "end"])
def test_boolean_window_bound_trace_file_is_config_error(fast_scenario, tmp_path, capsys,
                                                        intervals):
    _trace_with(fast_scenario, tmp_path / "trace.json", None, "intervals", intervals)
    data = yaml.safe_load(fast_scenario.read_text())
    data["channels"]["trace_file"] = "trace.json"
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    capsys.readouterr()
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "channel act/0" in err


@pytest.mark.parametrize("where, key", [("params", "tau_D"), (None, "window")],
                         ids=["params", "entry"])
def test_verify_rejects_an_unknown_trace_key(fast_scenario, tmp_path, capsys, where, key):
    # a misspelt budget key was ignored, and the trace passed its audit
    trace = _trace_with(fast_scenario, tmp_path / "trace.json", where, key, 25.0)
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == 1
    captured = capsys.readouterr()
    assert "malformed trace:" in captured.err and key in captured.err


@pytest.mark.parametrize("horizon, code", [(24.0, 2), (12.0, 0), (6.0, 0)])
def test_trace_file_must_reach_the_horizon(fast_scenario, tmp_path, capsys, horizon, code):
    # past the end of its 12 s trace every channel read as unattacked; a
    # longer trace is allowed
    assert main(["attacks", "generate", str(fast_scenario),
                 "--out", str(tmp_path / "trace.json")]) == 0
    data = yaml.safe_load(fast_scenario.read_text())
    data["horizon"] = horizon
    data["channels"]["trace_file"] = "trace.json"
    scen = tmp_path / "scen.yaml"
    scen.write_text(yaml.safe_dump(data))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(scen), "--instance", "frequency", "--out", str(out)]) == code
    if code:
        assert "channel act/0 ends at 12, before the horizon 24" in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize("name", ["comm/0/2", "comm/1/0", "comm/1/1", "meas/4", "act/9", "jam/7"])
def test_trace_file_naming_a_channel_the_scenario_lacks_is_config_error(fast_scenario, tmp_path,
                                                                          capsys, name):
    # ring-4 has no link 0-2, and one comm channel per link (i < j) unless
    # per_direction_comm: the run ignored such a channel and copied it into
    # attack_trace.json
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    data = json.loads(trace.read_text())
    data[name] = data["act/0"]
    trace.write_text(json.dumps(data))
    scen = yaml.safe_load(fast_scenario.read_text())
    scen["channels"]["trace_file"] = "trace.json"
    (tmp_path / "scen.yaml").write_text(yaml.safe_dump(scen))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "scen.yaml"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and name in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["jam/7", "comm/0", "meas/0/1", "act/-1", "act/01", "act/x",
                                  "act/0/"])
def test_verify_rejects_a_channel_name_of_no_kind(fast_scenario, tmp_path, capsys, name):
    # only meas/i, act/i and comm/i/j name a channel; any other name passed the audit
    trace = tmp_path / "trace.json"
    assert main(["attacks", "generate", str(fast_scenario), "--out", str(trace)]) == 0
    data = json.loads(trace.read_text())
    data[name] = data["act/0"]
    trace.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["attacks", "verify", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "malformed trace:" in err and name in err


ONE_NODE_COMMANDS = [(cmd, ["--mode", mode]) for cmd in ("run", "design") for mode in MODES] + \
    [("sweep", ["--seeds", "1"]), ("attacks generate", [])]


@pytest.mark.parametrize("command, flags", ONE_NODE_COMMANDS,
                         ids=[f"{c} {f[1]}" if f[:1] == ["--mode"] else c
                              for c, f in ONE_NODE_COMMANDS])
def test_a_scenario_without_a_link_is_config_error(fast_scenario, tmp_path, capsys, command,
                                                   flags):
    # a one-node ring has no edge to run a controller on: every command raised
    # an uncaught ValueError
    data = yaml.safe_load(fast_scenario.read_text())
    data["topology"]["adjacency"] = [[0]]
    data["instances"] = {"frequency": {"initial": [50.0]}}
    del data["mgs"]
    scen = tmp_path / "one.yaml"
    scen.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main([*command.split(), str(scen), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "no link" in err
    assert not out.exists()
