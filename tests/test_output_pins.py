"""Byte pins of `mgconsensus run` on the bundled scenario.

The sha256 of every per-instance output (trace CSV, events CSV, metrics JSON)
in the four modes at seeds 0 and 3. An engine or writer change that claims to
keep the outputs must keep these bytes; a deliberate output change updates the
pins and says so.
"""

import hashlib
from pathlib import Path

import pytest

from mgconsensus.cli import main as cli_main

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"

PINS = {
    ("nominal", 0): {
        "frequency_events.csv":
            "81aba54a4b31bb80c8f4af2a48f87d4f308cd2c2f5a6d736bfe472ea4be17d2e",
        "frequency_metrics.json":
            "a6d2654e73f9949741b5c98e3f0a8c8ce45f162b9fdb9664c9d05654c07291d1",
        "frequency_trace.csv":
            "cb4bca107dbdd32b6eee9a35de982f83036f6a6f8c9f23fc77db9281c1b7a345",
        "power_events.csv":
            "79e242613c406e94e92dcd95dd71d46e1286b971462ae5112967424b0ccaf116",
        "power_metrics.json":
            "4f66f3fdbb3e57c2904ce65eece7c5317e0ff09bc1ae9438a981a9379505156d",
        "power_trace.csv":
            "49250767ca07d2b0694f97f58fe855fa0993061c4c529c168eb899294cd4748a",
    },
    ("nominal", 3): {
        "frequency_events.csv":
            "5aa77a375d94c02c10d099651dccecaff6a03bbc200da84a71aa10855baa779d",
        "frequency_metrics.json":
            "5d5f4817621cbf3f83bd02fdb4398e5c98f116186187dbb6e64c374845d00bd8",
        "frequency_trace.csv":
            "3a5d850ee049bd151d40aed7cbe05fd53858823d78064ad94078fb5779db0554",
        "power_events.csv":
            "597ce4db34ea336cc0f3975c8a1877153951c73bb3e5a4b7f35530b55cb2e489",
        "power_metrics.json":
            "e926ab9c6da4ab99628ba6f8bc770157ca857fd8e4accc61e3756609ce4d34a7",
        "power_trace.csv":
            "49250767ca07d2b0694f97f58fe855fa0993061c4c529c168eb899294cd4748a",
    },
    ("resilient-global", 0): {
        "frequency_events.csv":
            "7915af5039f97f23b08d85dc3024c0ad21c0b19172ec208a0dc4c1350d137bde",
        "frequency_metrics.json":
            "e9bda3f48d8693fe272f1ef5d7f4d7c0604110f288c013475c40cd8ea16d9f5b",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "19ec0a29c5892454ebab849b4f7c049cfb0ca49ceff690b4c156ea73ebe409e5",
        "power_metrics.json":
            "26865df175d3287a7554619e32086f3fdb1df112844e0211c37173791a37389c",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
    },
    ("resilient-global", 3): {
        "frequency_events.csv":
            "014bad54887b82889b26a903574204b0f944982c9f4bee70c8636199e81e55b1",
        "frequency_metrics.json":
            "83c83cee2fff315ede55a914af50458529f9b1ad4a7db52f8f7e056188b48fa9",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "c64d8f91b2681e5d74816d02daf6599fcf775c27ecf610f683ea8373026a24a0",
        "power_metrics.json":
            "f22db8f002be8812d621122bbacd442e7c91f0dae5df94ac572ba71a9039b661",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
    },
    ("resilient-local", 0): {
        "frequency_events.csv":
            "7915af5039f97f23b08d85dc3024c0ad21c0b19172ec208a0dc4c1350d137bde",
        "frequency_metrics.json":
            "e9bda3f48d8693fe272f1ef5d7f4d7c0604110f288c013475c40cd8ea16d9f5b",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "19ec0a29c5892454ebab849b4f7c049cfb0ca49ceff690b4c156ea73ebe409e5",
        "power_metrics.json":
            "26865df175d3287a7554619e32086f3fdb1df112844e0211c37173791a37389c",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
    },
    ("resilient-local", 3): {
        "frequency_events.csv":
            "014bad54887b82889b26a903574204b0f944982c9f4bee70c8636199e81e55b1",
        "frequency_metrics.json":
            "83c83cee2fff315ede55a914af50458529f9b1ad4a7db52f8f7e056188b48fa9",
        "frequency_trace.csv":
            "2ebd2b1070380006769ffcfc203c5a510da3e3e0cac0c91b295dca2e6873ff9b",
        "power_events.csv":
            "c64d8f91b2681e5d74816d02daf6599fcf775c27ecf610f683ea8373026a24a0",
        "power_metrics.json":
            "f22db8f002be8812d621122bbacd442e7c91f0dae5df94ac572ba71a9039b661",
        "power_trace.csv":
            "3d83867a32138c6090e213f382d8e659c044724f21550cbda8ed1fbcde48ed96",
    },
    ("self-adaptive", 0): {
        "frequency_events.csv":
            "083f2dc7d09fe556434ab55462b061bc82b5b63aa4e145fd2522f3e6fac222d2",
        "frequency_metrics.json":
            "1e6577dac3a213f10d00c63dede931490abec27b2086bccbb2f11c9ace0609c1",
        "frequency_trace.csv":
            "a8b4190f9e56bbd74579a2a779511f93dc77084d5426e275073825ac250f45d8",
        "power_events.csv":
            "1a222cfc966066f7032cc702e2c4afa53a1384bc1b2db175a0b6a62fb5c3e460",
        "power_metrics.json":
            "22dc8c01faa3b7180c189a1e2e4d59e9ae7afa056236a002b29ebb4dfa7afdfb",
        "power_trace.csv":
            "2b1752561d94013937bc1331d982b2dc832aa1ae8f58929f617d3d8309232d18",
    },
    ("self-adaptive", 3): {
        "frequency_events.csv":
            "47f19cb84e48e670ee2d08119a2f2711e009d8e15e492ff23928905f3f8544e2",
        "frequency_metrics.json":
            "588ca6600e29c46bf36d23812e8a2da669770b90642b4e4ba5d815857649ed35",
        "frequency_trace.csv":
            "1fe6838ccbb8aa9527f01d1820f225425c0dd46c7832fe1b7257044792ff4833",
        "power_events.csv":
            "77df107f7b972a4d7a881985559a6883a927f6a29193d87bd4c03455a9263b18",
        "power_metrics.json":
            "868dd8cdcf5a55d7dfcd09aab6d51439048db66d11053406524f8ecbcd98b2d5",
        "power_trace.csv":
            "2b1752561d94013937bc1331d982b2dc832aa1ae8f58929f617d3d8309232d18",
    },
}


@pytest.mark.parametrize("mode, seed", sorted(PINS))
def test_run_outputs_match_pins(tmp_path, mode, seed):
    out = tmp_path / "run"
    assert cli_main(["run", str(SCENARIO), "--mode", mode, "--seed", str(seed),
                     "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINS[(mode, seed)]}
    assert got == PINS[(mode, seed)]
