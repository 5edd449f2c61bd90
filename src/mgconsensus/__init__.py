"""Self-triggered ternary consensus for networked microgrids under DoS.

Deterministic event-driven simulator plus the offline design, online
self-adaptation, and attack-trace tooling around it.
"""

from .attacks import (
    ChannelSet,
    DosParams,
    DosSequence,
    generate_channel_set,
    generate_sequence,
    podf_bound,
    podf_witness,
    verify_sequence,
    worst_case_sequence,
)
from .controller import clock_reset, deadzone_sign, dwell_time_floor
from .design import (
    DesignCertificate,
    certified_params,
    convergence_bound,
    global_threshold,
    local_threshold,
    lyapunov,
)
from .engine import EngineConfig, RunMetrics, Simulation
from .errors import ConfigError
from .scenario import Scenario, load_scenario, parse_scenario
from .topology import Topology, load_topology

__version__ = "0.1.0"

__all__ = [
    "ChannelSet", "ConfigError", "DesignCertificate", "DosParams", "DosSequence",
    "EngineConfig", "RunMetrics", "Scenario", "Simulation", "Topology",
    "certified_params", "clock_reset", "convergence_bound", "deadzone_sign",
    "dwell_time_floor", "generate_channel_set", "generate_sequence",
    "global_threshold", "load_scenario", "load_topology", "local_threshold",
    "lyapunov", "parse_scenario", "podf_bound", "podf_witness",
    "verify_sequence", "worst_case_sequence", "__version__",
]
