"""Self-triggered ternary consensus for networked microgrids under DoS.

Deterministic event-driven simulator plus the offline design, online
self-adaptation, and attack-trace tooling around it. The API lives in the
modules (`engine`, `scenario`, `design`, `attacks`, ...); the root exports
only `load_scenario` and `__version__`.
"""

from .scenario import load_scenario

__version__ = "0.1.0"

__all__ = ["load_scenario", "__version__"]
