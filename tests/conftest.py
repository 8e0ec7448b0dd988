"""Shared fixtures; session scope amortizes the expensive table builds."""

import numpy as np
import pytest

from amrbeam import build_table, make_psk, make_qam


@pytest.fixture(scope="session")
def bpsk():
    return make_psk(2)


@pytest.fixture(scope="session")
def qam4():
    return make_qam(4)


@pytest.fixture(scope="session")
def qam16():
    return make_qam(16)


@pytest.fixture(scope="session")
def table_qam4(qam4):
    """Workhorse table: dense enough for the 1e-8 quadrature contracts."""
    return build_table(qam4, -40.0, 40.0, 40)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240917)
