import pytest

from mgconsensus.aggregation import (
    DgSpec,
    aggregate,
    dg_from_rating,
    share_power,
)
from mgconsensus.errors import EmptyMgError, InconsistentDroopsError

MG1 = [20.0, 15.0, 15.0, 15.0, 15.0]
MG2 = [20.0, 20.0, 15.0, 15.0, 10.0]


def test_dg_from_rating_inverse_droop():
    dg = dg_from_rating(20.0, droop_constant=2.0)
    assert dg.droop == pytest.approx(0.1)
    assert dg.rating_kw == 20.0


def test_dg_validation():
    with pytest.raises(ValueError):
        DgSpec(rating_kw=0.0, droop=0.1)
    with pytest.raises(ValueError):
        DgSpec(rating_kw=1.0, droop=-0.1)


def test_equivalent_droop_is_harmonic():
    dgs = [dg_from_rating(r) for r in MG1]
    mg = aggregate(dgs, total_power_kw=40.0)
    # with droop = c / rating the harmonic combination is c / sum(ratings)
    assert mg.droop == pytest.approx(1.0 / sum(MG1))
    assert mg.set_point == pytest.approx(0.0 + 40.0 / sum(MG1))


def test_equivalent_frequency_weighted_mean():
    dgs = [
        DgSpec(10.0, 0.1, omega=314.0, omega_c=30.0),
        DgSpec(10.0, 0.1, omega=315.0, omega_c=30.0),
    ]
    assert aggregate(dgs).omega == pytest.approx(314.5)
    # equal frequencies are a fixed point regardless of cutoff spread
    dgs = [
        DgSpec(10.0, 0.1, omega=314.0, omega_c=30.0),
        DgSpec(20.0, 0.05, omega=314.0, omega_c=60.0),
    ]
    assert aggregate(dgs).omega == pytest.approx(314.0)


def test_empty_mg_rejected():
    with pytest.raises(EmptyMgError):
        aggregate([])
    with pytest.raises(EmptyMgError):
        share_power(10.0, [])


def test_share_power_proportional_to_ratings():
    dgs = [dg_from_rating(r) for r in MG2]
    shares = share_power(80.0, dgs)
    assert shares == pytest.approx([20.0, 20.0, 15.0, 15.0, 10.0])
    # the advertised fixed ratio
    ratio = [s / shares[-1] for s in shares]
    assert ratio == pytest.approx([2.0, 2.0, 1.5, 1.5, 1.0])


def test_share_power_requires_consistent_droops():
    dgs = [dg_from_rating(10.0), DgSpec(10.0, 0.2)]
    with pytest.raises(InconsistentDroopsError):
        share_power(10.0, dgs)
