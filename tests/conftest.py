from contextlib import contextmanager

import pytest

from guardsim.errors import Refused
from guardsim.sim import Simulation
from guardsim.units import fmt_units, to_units


@pytest.fixture
def sim():
    return Simulation(seed=0, name="test")


def fund_accounts(sim, count, balance=10, age_ticks=86400):
    """Create accounts and age them past the fresh-wallet credit threshold."""
    addresses = [sim.ledger.create_account(to_units(balance)) for _ in range(count)]
    if age_ticks:
        sim.ledger.advance_time(age_ticks)
    return addresses


def risk_request(sender, recipient, price, time):
    """The ``RiskRequested`` payload of a transfer of token 1, as the bridge logs it, and its ``price`` in
    sub-units: the pair the bridge hands ``RiskEngine.evaluate``."""
    request = {
        "request_id": 1,
        "caller": sender,
        "from": sender,
        "to": recipient,
        "token_id": 1,
        "price": fmt_units(price),
        "time": time,
    }
    return request, price


@contextmanager
def refused(code):
    """Expect the block to raise ``Refused`` with ``code``, the code its StepRejected would log."""
    with pytest.raises(Refused) as err:
        yield
    assert err.value.code == code


@pytest.fixture
def parties(sim):
    return fund_accounts(sim, 3)
