import mgconsensus
from mgconsensus.scenario import load_scenario


def test_package_root_exports_load_scenario_and_version():
    assert mgconsensus.load_scenario is load_scenario
    assert isinstance(mgconsensus.__version__, str) and mgconsensus.__version__
    assert sorted(mgconsensus.__all__) == ["__version__", "load_scenario"]
