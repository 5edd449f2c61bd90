"""Byte pins of the bundled scenario's outputs.

The sha256 of every file `mgconsensus run` writes (trace CSV, events CSV,
metrics JSON, attack trace, summary) in the four modes at seeds 0 and 3, of
`design` in the four modes and in local mode on a 12-node ring, of
`attacks generate` at the scenario's seed, at `--seed 3` and at an 8,000 s
horizon, and of `sweep --seeds 2 --out`. The
bundled runs log only a few hundred triggers from the event heap; the 12 s
ring-64 run of the oracle tests (`conftest.ring64_data`), whose triggers all
come from the heap (~20k self-adaptive, ~44k nominal), pins the active loop's
events, trace and metrics in both modes. An
engine, generator or writer change that claims to keep the outputs must keep
these bytes; a deliberate output change updates the pins and says so.

The commands run from the repository root on the relative scenario path,
which `summary.json` and `sweep.json` record.
"""

import hashlib
from pathlib import Path

import conftest
import pytest
import yaml

from mgconsensus.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = "scenarios/ring4_dos.yaml"

PINS = {
    ("nominal", 0): {
        "attack_trace.json":
            "8f5790a18168d28bae872e0d5dc49062ab2fe6b7566ddd1551b2b1e42bbab534",
        "frequency_events.csv":
            "ae3ba770ac1bce887861faede99e70e2db153f24ebd642a06092fea0de699b40",
        "frequency_metrics.json":
            "a6d2654e73f9949741b5c98e3f0a8c8ce45f162b9fdb9664c9d05654c07291d1",
        "frequency_trace.csv":
            "cb4bca107dbdd32b6eee9a35de982f83036f6a6f8c9f23fc77db9281c1b7a345",
        "power_events.csv":
            "6f57ab85bdeb77d1d1677b3c0492eaa8647d312a91af87d2340339c322a968cf",
        "power_metrics.json":
            "4f66f3fdbb3e57c2904ce65eece7c5317e0ff09bc1ae9438a981a9379505156d",
        "power_trace.csv":
            "49250767ca07d2b0694f97f58fe855fa0993061c4c529c168eb899294cd4748a",
        "summary.json":
            "2a228c8e87b37a969bd224ae63f235255b41f6859e66a48daddde67f4dddf6c1",
    },
    ("nominal", 3): {
        "attack_trace.json":
            "cd17bd2965b1ee44c000b0f2a68664e6335fd7a5e0be600ccd6e33bf2044825d",
        "frequency_events.csv":
            "b2f314a5e289984128374e6b9883da2f209599be9ae79a0c258e27e40db27303",
        "frequency_metrics.json":
            "5d5f4817621cbf3f83bd02fdb4398e5c98f116186187dbb6e64c374845d00bd8",
        "frequency_trace.csv":
            "3a5d850ee049bd151d40aed7cbe05fd53858823d78064ad94078fb5779db0554",
        "power_events.csv":
            "ba154022bd7c927491f93b287b1ece1d86eb91dcaac564fa9c6125ed20dc7be3",
        "power_metrics.json":
            "e926ab9c6da4ab99628ba6f8bc770157ca857fd8e4accc61e3756609ce4d34a7",
        "power_trace.csv":
            "49250767ca07d2b0694f97f58fe855fa0993061c4c529c168eb899294cd4748a",
        "summary.json":
            "723bd4f27b29269ac6ff18cf3cfed64ebfdfc3231a3798822519d01e847733f6",
    },
    ("resilient-global", 0): {
        "attack_trace.json":
            "ac5cb2e37a262f70ad910631f6550ad904328ec47b87dac3196bdcdb6468800b",
        "frequency_events.csv":
            "77a1085c256e9c1d11ef96aceb439190adefa415249100090d68767623408353",
        "frequency_metrics.json":
            "e9bda3f48d8693fe272f1ef5d7f4d7c0604110f288c013475c40cd8ea16d9f5b",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "d3219c2856c8c021b9b752225594f218816cf2f62538ba519bc2a4d01128957d",
        "power_metrics.json":
            "26865df175d3287a7554619e32086f3fdb1df112844e0211c37173791a37389c",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
        "summary.json":
            "d2016d2e944ab1119587eab1b9940421c167e0156980fd4df9a8f4e90ce7ac4d",
    },
    ("resilient-global", 3): {
        "attack_trace.json":
            "01278a852ad6c92bb9128b7f86d5b1c2a2b756d54cc04e84e886f0e1a16674a5",
        "frequency_events.csv":
            "897149732f1f9d34605b5fcaf4a8cbb96a286be369be9a816c67b57a9041d854",
        "frequency_metrics.json":
            "83c83cee2fff315ede55a914af50458529f9b1ad4a7db52f8f7e056188b48fa9",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "43ec94459893c9e4a2009b285938d219834e30d94208b4e73e8ed540bae1c464",
        "power_metrics.json":
            "f22db8f002be8812d621122bbacd442e7c91f0dae5df94ac572ba71a9039b661",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
        "summary.json":
            "86e0f0d74cd834757435fbb5ce760cc3eaf10a0052029d76baa3c720919b0a8d",
    },
    ("resilient-local", 0): {
        "attack_trace.json":
            "ac5cb2e37a262f70ad910631f6550ad904328ec47b87dac3196bdcdb6468800b",
        "frequency_events.csv":
            "77a1085c256e9c1d11ef96aceb439190adefa415249100090d68767623408353",
        "frequency_metrics.json":
            "e9bda3f48d8693fe272f1ef5d7f4d7c0604110f288c013475c40cd8ea16d9f5b",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "d3219c2856c8c021b9b752225594f218816cf2f62538ba519bc2a4d01128957d",
        "power_metrics.json":
            "26865df175d3287a7554619e32086f3fdb1df112844e0211c37173791a37389c",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
        "summary.json":
            "6fabe6007e8f9007095a9901b9145ba1fc89da392ae64960071fe0d63636fb80",
    },
    ("resilient-local", 3): {
        "attack_trace.json":
            "01278a852ad6c92bb9128b7f86d5b1c2a2b756d54cc04e84e886f0e1a16674a5",
        "frequency_events.csv":
            "897149732f1f9d34605b5fcaf4a8cbb96a286be369be9a816c67b57a9041d854",
        "frequency_metrics.json":
            "83c83cee2fff315ede55a914af50458529f9b1ad4a7db52f8f7e056188b48fa9",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "43ec94459893c9e4a2009b285938d219834e30d94208b4e73e8ed540bae1c464",
        "power_metrics.json":
            "f22db8f002be8812d621122bbacd442e7c91f0dae5df94ac572ba71a9039b661",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
        "summary.json":
            "ab88af869002c21fe250c06f3ee4b2f5ae6f8a3317822afcd5ca3fae29592e4f",
    },
    ("self-adaptive", 0): {
        "attack_trace.json":
            "ac5cb2e37a262f70ad910631f6550ad904328ec47b87dac3196bdcdb6468800b",
        "frequency_events.csv":
            "d3124edd71f9957a06a9df5852204501928ad2216bca07925815c525bd9490c4",
        "frequency_metrics.json":
            "1e6577dac3a213f10d00c63dede931490abec27b2086bccbb2f11c9ace0609c1",
        "frequency_trace.csv":
            "a8b4190f9e56bbd74579a2a779511f93dc77084d5426e275073825ac250f45d8",
        "power_events.csv":
            "7aa49bbb7f925ba1c3accdf3cd677620ebf53bd7531a1704f533dd375d6de651",
        "power_metrics.json":
            "22dc8c01faa3b7180c189a1e2e4d59e9ae7afa056236a002b29ebb4dfa7afdfb",
        "power_trace.csv":
            "2b1752561d94013937bc1331d982b2dc832aa1ae8f58929f617d3d8309232d18",
        "summary.json":
            "4d805c6e98b37239b03123d63b7dd412283a29e74a8c1ea4e557fda57ffe24ef",
    },
    ("self-adaptive", 3): {
        "attack_trace.json":
            "01278a852ad6c92bb9128b7f86d5b1c2a2b756d54cc04e84e886f0e1a16674a5",
        "frequency_events.csv":
            "98813375b2be89b1fa0bd5e407ce49d73d5fa87ba36bac11626faeacd189f401",
        "frequency_metrics.json":
            "588ca6600e29c46bf36d23812e8a2da669770b90642b4e4ba5d815857649ed35",
        "frequency_trace.csv":
            "1fe6838ccbb8aa9527f01d1820f225425c0dd46c7832fe1b7257044792ff4833",
        "power_events.csv":
            "9b81abea4eadfd6635f91277424c2e5ff48e3a0093fb7eb27119bc1c130f57d3",
        "power_metrics.json":
            "868dd8cdcf5a55d7dfcd09aab6d51439048db66d11053406524f8ecbcd98b2d5",
        "power_trace.csv":
            "2b1752561d94013937bc1331d982b2dc832aa1ae8f58929f617d3d8309232d18",
        "summary.json":
            "2bb68f5b947fefc6f038543d3be7d6ebb61332cb31d018f40d9a84d88f0b94c2",
    },
}


DESIGN_PINS = {
    "nominal": "508f45fcc4a768848c3b20e82d419f1dd3c71199a847e086ffd414580437f805",
    "resilient-global": "edb6a3c00579dcc0790363737a610d5c2bd0c5b01af12e85fd260c0debf71170",
    "resilient-local": "d06f3258972f324da749c130f96a7a7e3bc39f76017f89cd85dee6e92c7522ea",
    "self-adaptive": "7124217d1462b8d936c9ec45dd3cc48127b398cd11c7e8fe49c569029ad5a595",
}

# `design --mode resilient-local` on a 12-node ring whose node 3 has a far larger
# measurement budget: two distinct per-edge eps, keys "10-11" beside "2-3", and
# both notes. Node ids 10 and 11 sort as text, before "2"
RING12_DESIGN_PIN = "8324d174ccf02334616bbcd190d8142ac5e051017748bbf3ad2bbc5724afd4db"

GENERATE_PINS = {
    "scenario-seed": "5b648d84b6a29ad0a69d78634aad8c029aa8636f39ec71bcb7edb16a0380d561",
    "seed-3": "01278a852ad6c92bb9128b7f86d5b1c2a2b756d54cc04e84e886f0e1a16674a5",
    "horizon-8000": "3b5aa89f8f6dc908a990968bd050fe90c94c47e20f9b50fbe70b8f940d3a386c",
}

SWEEP_PIN = "f0e04860ccc6ba1439ffba7ba7663ea2e11a48e83319484e7e2e83b948154a1d"

RING64_PINS = {
    "self-adaptive": {
        "frequency_events.csv":
            "cb3d67192c6d27411d3645aa00036032ff3323993a11917eec05d59e8395dcc6",
        "frequency_metrics.json":
            "6f411b7e2fcd0304f818e8cbebc1ccd6e51f1c25a26a0f6a445dac0f45a8e39c",
        "frequency_trace.csv":
            "3cb4b4bbc34b5cece42da14a6c3d3cd6ff8913b4ebfcf5bb79d67cae04bb1f6f",
    },
    # ~44k heap rows, stale reads on jammed links and 19 failed actuations
    "nominal": {
        "frequency_events.csv":
            "3d31cd501bd60ba21e04228109093160a2683499fda251a44eaddd2a82c4e871",
        "frequency_metrics.json":
            "3c0601da66b612b447cd7f8d1c7b8ab4a2aeac1739d606389f496fbeb6b54d5f",
        "frequency_trace.csv":
            "aa107e7a4579f3908016887d25b49aabb135f1996e85e548acd174fb650eae04",
    },
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("mode, seed", sorted(PINS))
def test_run_outputs_match_pins(at_root, tmp_path, mode, seed):
    out = tmp_path / "run"
    assert cli_main(["run", SCENARIO, "--mode", mode, "--seed", str(seed),
                     "--out", str(out)]) == 0
    got = {name: sha256(out / name) for name in PINS[(mode, seed)]}
    assert got == PINS[(mode, seed)]


@pytest.mark.parametrize("mode", sorted(DESIGN_PINS))
def test_design_matches_pins(at_root, tmp_path, mode):
    out = tmp_path / "certificate.json"
    # the nominal design is not certified against the bundled DoS budgets
    assert cli_main(["design", SCENARIO, "--mode", mode, "--out", str(out)]) == \
        (1 if mode == "nominal" else 0)
    assert sha256(out) == DESIGN_PINS[mode]


def test_ring12_local_design_matches_pin(tmp_path):
    n = 12
    data = yaml.safe_load((ROOT / SCENARIO).read_text())
    del data["mgs"]
    data["topology"]["adjacency"] = [[int((j - i) % n in (1, n - 1)) for j in range(n)]
                                     for i in range(n)]
    data["instances"] = {"frequency": {"initial": [50.0 + 0.01 * i for i in range(n)]}}
    data["channels"]["measurement"]["overrides"] = {
        3: {"eta": 1.0, "kappa": 1.0, "tau_f": 10.0, "tau_d": 25.0}}
    scenario, out = tmp_path / "ring12.yaml", tmp_path / "certificate.json"
    scenario.write_text(yaml.safe_dump(data, sort_keys=True))
    # the stability decrement is negative, so the design is not certified
    assert cli_main(["design", str(scenario), "--mode", "resilient-local",
                     "--out", str(out)]) == 1
    assert sha256(out) == RING12_DESIGN_PIN


@pytest.mark.parametrize("variant", sorted(GENERATE_PINS))
def test_attacks_generate_matches_pins(at_root, tmp_path, variant):
    scenario, extra = SCENARIO, []
    if variant == "seed-3":
        extra = ["--seed", "3"]
    elif variant == "horizon-8000":  # about 7.5k windows over the 12 channels
        data = yaml.safe_load((ROOT / SCENARIO).read_text())
        data.update(horizon=8000.0, seed=701)
        scenario = tmp_path / "long.yaml"
        scenario.write_text(yaml.safe_dump(data, sort_keys=True))
    out = tmp_path / "trace.json"
    assert cli_main(["attacks", "generate", str(scenario), *extra, "--out", str(out)]) == 0
    assert sha256(out) == GENERATE_PINS[variant]


def test_sweep_matches_pin(at_root, tmp_path):
    out = tmp_path / "sweep.json"
    assert cli_main(["sweep", SCENARIO, "--seeds", "2", "--out", str(out)]) == 0
    assert sha256(out) == SWEEP_PIN


def _ring64_run_hashes(tmp_path, mode: str) -> dict:
    scenario, out = tmp_path / "ring64.yaml", tmp_path / "run"
    scenario.write_text(yaml.safe_dump(conftest.ring64_data(), sort_keys=True))
    assert cli_main(["run", str(scenario), "--mode", mode, "--out", str(out)]) == 0
    return {name: sha256(out / name) for name in RING64_PINS[mode]}


def test_ring64_active_run_matches_pins(tmp_path):
    assert _ring64_run_hashes(tmp_path, "self-adaptive") == RING64_PINS["self-adaptive"]


def test_ring64_nominal_run_matches_pins(tmp_path):
    assert _ring64_run_hashes(tmp_path, "nominal") == RING64_PINS["nominal"]
