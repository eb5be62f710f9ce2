from contextlib import contextmanager

import pytest

from guardsim.errors import Refused
from guardsim.sim import Simulation
from guardsim.units import to_units


@pytest.fixture
def sim():
    return Simulation(seed=0, name="test")


def fund_accounts(sim, count, balance=10, age_ticks=86400):
    """Create accounts and age them past the fresh-wallet credit threshold."""
    addresses = [sim.ledger.create_account(to_units(balance)) for _ in range(count)]
    if age_ticks:
        sim.ledger.advance_time(age_ticks)
    return addresses


@contextmanager
def refused(code):
    """Expect the block to raise ``Refused`` with ``code``, the code its StepRejected would log."""
    with pytest.raises(Refused) as err:
        yield
    assert err.value.code == code


@pytest.fixture
def parties(sim):
    return fund_accounts(sim, 3)
