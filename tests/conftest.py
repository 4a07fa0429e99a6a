import numpy as np
import pytest

import planar_ppv as pp


@pytest.fixture(scope="session")
def sl_model():
    return pp.get_model("stuart_landau", omega=1.0)


@pytest.fixture(scope="session")
def sl_cycle(sl_model):
    # settle 0 from the exact cycle point keeps the anchor at (1, 0)
    return pp.find_cycle(sl_model, (1.0, 0.0), settle_time=0.0)


@pytest.fixture(scope="session")
def sl_basis(sl_cycle):
    return pp.DilibertoBasis(sl_cycle)


@pytest.fixture(scope="session")
def vdp_model():
    return pp.get_model("vanderpol", mu=1.0)


@pytest.fixture(scope="session")
def vdp_cycle(vdp_model):
    return pp.find_cycle(vdp_model, (2.0, 0.0))


@pytest.fixture(scope="session")
def vdp_basis(vdp_cycle):
    return pp.DilibertoBasis(vdp_cycle)


@pytest.fixture(scope="session")
def sl_report(sl_basis):
    return pp.verify_basis(sl_basis, 1e-6)


@pytest.fixture(scope="session")
def vdp_report(vdp_basis):
    return pp.verify_basis(vdp_basis, 1e-5)


@pytest.fixture(scope="session")
def all_models():
    return [pp.get_model("vanderpol"), pp.get_model("stuart_landau"),
            pp.get_model("brusselator")]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
