"""MG aggregation of DGs: each DG droops at c / R_k, an MG at the harmonic
combination c / sum(R), and the scenario parser refuses ratings that cannot
give a droop."""
import copy
import re
from pathlib import Path

import pytest
import yaml

from mgconsensus.errors import ConfigError
from mgconsensus.scenario import mg_power_shares, parse_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "ring4_dos.yaml"
MG1 = [20.0, 15.0, 15.0, 15.0, 15.0]


@pytest.fixture(scope="module")
def data():
    with open(SCENARIO) as fh:
        return yaml.safe_load(fh)


def _with_mg0(data, ratings, droop_constant=1.0, power_kw=40.0):
    case = copy.deepcopy(data)
    case["mgs"][0]["ratings_kw"] = ratings
    case["droop_constant"] = droop_constant
    case["instances"]["power"]["initial_power_kw"][0] = power_kw
    return case


def test_dg_from_rating_inverse_droop(data):
    # a single 20 kW DG with c = 2 droops at 0.1, so its state is 0.1 * P
    scen = parse_scenario(_with_mg0(data, [20.0], droop_constant=2.0))
    assert scen.instances["power"]["initial"][0] == pytest.approx(0.1 * 40.0)
    # the rating-proportional split puts every DG at the MG's state: (c / R_k) * share_k
    scen = parse_scenario(_with_mg0(data, MG1, droop_constant=2.0))
    shares = mg_power_shares(scen, 0, 40.0)
    assert [2.0 / r * s for r, s in zip(MG1, shares)] == \
        pytest.approx([scen.instances["power"]["initial"][0]] * len(MG1))


def test_dg_validation(data):
    for ratings in ([0, 0], [20.0, -5.0]):
        with pytest.raises(ConfigError, match=re.escape("mgs[0].ratings_kw")):
            parse_scenario(_with_mg0(data, ratings))


def test_equivalent_droop_is_harmonic(data):
    # with droop = c / rating the harmonic combination is c / sum(ratings)
    scen = parse_scenario(_with_mg0(data, MG1))
    assert scen.instances["power"]["initial"][0] == pytest.approx(40.0 / sum(MG1))
    # every MG of the bundled scenario, at c = 2
    case = copy.deepcopy(data)
    case["droop_constant"] = 2.0
    scen = parse_scenario(case)
    powers = data["instances"]["power"]["initial_power_kw"]
    for x, p, ratings in zip(scen.instances["power"]["initial"], powers, scen.mg_ratings):
        harmonic = 1.0 / sum(r / 2.0 for r in ratings)
        assert x == pytest.approx(harmonic * p, rel=1e-15)


def test_empty_mg_rejected(data):
    with pytest.raises(ConfigError, match=re.escape("mgs[0].ratings_kw")):
        parse_scenario(_with_mg0(data, []))
