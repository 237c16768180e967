import pytest

from gaborlattice import SignalModel, nome_from_tau


@pytest.fixture
def params_tau1():
    return nome_from_tau(1.0)


@pytest.fixture
def unit_gaussian():
    return SignalModel.gaussian([(1.0, 0.0, 0.0)])


@pytest.fixture
def two_component():
    # shifted+modulated pair used across the round-trip tests
    return SignalModel.gaussian([(1.0, 0.7, 2.0), (1.0, -1.0, 0.0)])


@pytest.fixture
def off_centre():
    # fast-modulated and far below its envelope away from x = 2.5: a callback
    # quadrature row whose window centre -2 tau m lies far from there takes
    # the second, wider window radius
    return SignalModel.gaussian([(1.0, 2.5, 9.0), (0.5j, 3.0, -4.0)])
