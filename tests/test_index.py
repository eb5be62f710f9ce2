"""Differential tests of the token contract's floor and portfolio indexes.

The contract keeps the collection floor and every owner's portfolio value up
to date as tokens are minted, sold, given, reclaimed and returned. The
reference is `StubView`'s full scan over the same token table, run after
every step of a random operation sequence.
"""

from hypothesis import given, settings, strategies as st

from guardsim.errors import SimError
from guardsim.sim import Simulation
from guardsim.token import TokenState
from guardsim.units import UNIT, to_units

from conftest import fund_accounts
from riskgrid import StubView

USERS = 4
# repeated, falling and sub-unit prices; 0 is a gift and never sets a floor
PRICES = st.sampled_from([0, 1, UNIT, 2 * UNIT, 3 * UNIT, 5 * UNIT, 8 * UNIT])
INDEX = st.integers(0, 63)

OPS = st.one_of(
    st.tuples(st.just("mint"), INDEX),
    st.tuples(st.just("sale"), INDEX, INDEX, PRICES),
    st.tuples(st.just("reclaim"), INDEX),
    st.tuples(st.just("return"), INDEX, INDEX),
    st.tuples(st.just("advance")),
)


def _apply(sim, users, op):
    """Run one operation the way the protocol would; a refused one raises SimError."""
    contract, bridge = sim.contract, sim.bridge
    kind, *args = op
    if kind == "mint":
        contract.mint(users[args[0] % USERS], len(contract.tokens) + 1)
        return
    if kind == "advance":
        sim.ledger.advance_time(sim.config.freeze_ticks + 1)  # lets freezes expire
        return
    if not contract.tokens:
        return
    token = contract.token(args[0] % len(contract.tokens) + 1)
    if kind == "sale":
        if token.state is TokenState.LOCKED:
            bridge.privileged_dispatch("unlock", origin="dac", token_id=token.token_id)
        contract.transfer_from(token.owner, token.owner, users[args[1] % USERS], token.token_id, args[2])
    elif kind == "reclaim":
        bridge.privileged_dispatch("reclaim", origin="das", token_id=token.token_id)
    else:
        bridge.privileged_dispatch("return", origin="das", token_id=token.token_id, to=users[args[1] % USERS])


def _assert_indexes_match_full_scan(sim, addresses):
    contract = sim.contract
    reference = StubView(sim.ledger.time, contract.tokens, sim.ledger.accounts)
    assert contract.collection_floor() == reference.collection_floor()
    for address in addresses:
        assert contract.portfolio_value(address) == reference.portfolio_value(address), address


@settings(max_examples=150, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_indexes_equal_full_scan_after_every_step(ops):
    sim = Simulation(seed=3)
    users = fund_accounts(sim, USERS)
    addresses = users + [sim.treasury, sim.fee_sink, sim.escrow]
    for op in ops:
        try:
            _apply(sim, users, op)
        except SimError:
            pass  # a refused step must leave the indexes as they were, too
        _assert_indexes_match_full_scan(sim, addresses)


def test_floor_rises_when_the_lowest_sale_is_resold_higher(sim):
    alice, bob = fund_accounts(sim, 2)
    for token_id, price in ((1, "3"), (2, "5")):
        sim.contract.mint(alice, token_id)
        sim.contract.transfer_from(alice, alice, bob, token_id, to_units(price))
    assert sim.contract.collection_floor() == to_units("3")
    sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=1)
    sim.contract.transfer_from(bob, bob, alice, 1, to_units("4"))
    assert sim.contract.collection_floor() == to_units("4")  # the stale 3 is dropped
    assert sim.contract.portfolio_value(alice) == to_units("4")
    assert sim.contract.portfolio_value(bob) == to_units("5")


class _CountingTable(dict):
    """A token table that counts the records read out of it by a scan."""

    scanned = 0

    def values(self):
        for record in super().values():
            self.scanned += 1
            yield record

    def items(self):
        for item in super().items():
            self.scanned += 1
            yield item


def test_risk_evaluation_scans_no_token_records(sim):
    alice, bob = fund_accounts(sim, 2)
    for token_id in range(1, 21):
        sim.contract.mint(alice, token_id)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units("2"))
    table = _CountingTable(sim.contract.tokens)
    sim.contract.tokens = table
    verdict = sim.contract.transfer_from(alice, alice, bob, 2, to_units("2"))
    assert verdict.status == "safe"
    assert verdict.features["floor"] == "2.000000000000000000"
    assert sim.arbitration.required_deposit(3) == to_units("0.1")  # 1/20 of the floor, token 3 unsold
    assert table.scanned == 0
