import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from guardsim.arbitration import FOR_HOLDER, FOR_REPORTER, ArbitrationSystem, QuorumTally, select_jury
from guardsim.config import SimConfig
from guardsim.runner import run_scenario
from guardsim.scenario import parse_scenario
from guardsim.sim import Simulation
from guardsim.token import TokenRecord, TokenState
from guardsim.units import to_units

from conftest import fund_accounts, refused
from riskgrid import StubView


def arb_sim(juror_count=4, seed=0):
    sim = Simulation(seed=seed, name="arb")
    alice, bob, rival = fund_accounts(sim, 3, age_ticks=0)
    jurors = fund_accounts(sim, juror_count, balance=5, age_ticks=86400)
    return sim, alice, bob, rival, jurors


def sold_token(sim, seller, buyer, token_id=1, price=12):
    sim.contract.mint(seller, token_id)
    sim.contract.transfer_from(seller, seller, buyer, token_id, to_units(price))
    return token_id


# -- deposits -------------------------------------------------------------


def test_deposit_floor_for_never_sold_token():
    sim, alice, *_ = arb_sim()
    sim.contract.mint(alice, 1)
    assert sim.arbitration.required_deposit(1) == to_units("0.01")


def test_deposit_formula_last_sale_12_floor_10():
    sim, alice, bob, _, _ = arb_sim()
    sold_token(sim, alice, bob, token_id=1, price=12)
    sim.contract.mint(alice, 2)
    sim.contract.transfer_from(alice, alice, bob, 2, to_units(10))
    assert sim.arbitration.required_deposit(1) == to_units("0.6")  # max(12, floor 10) * 0.05
    assert sim.arbitration.required_deposit(2) == to_units("0.5")  # max(10, floor 10) * 0.05


def test_deposit_monotone_in_last_sale_price():
    sim, alice, bob, _, _ = arb_sim()
    deposits = []
    for price in range(1, 101):
        token_id = price
        sim.contract.mint(alice, token_id)
        sim.contract.transfer_from(alice, alice, bob, token_id, to_units(price))
        deposits.append(sim.arbitration.required_deposit(token_id))
    assert deposits == sorted(deposits)
    assert deposits[0] == to_units("0.05")  # max(0.01, 0.05 * 1)
    assert deposits[-1] == to_units(5)


@given(
    rate=st.fractions(min_value=0, max_value=10, max_denominator=10**30),
    last_sale=st.integers(min_value=0, max_value=10**300),
    floor=st.integers(min_value=0, max_value=10**300),
    deposit_min=st.integers(min_value=0, max_value=10**20),
)
@example(rate=Fraction(0), last_sale=10**300, floor=0, deposit_min=0)
@example(rate=Fraction(1, 3), last_sale=10**300, floor=10**300, deposit_min=1)
@example(rate=Fraction(10**30 - 1, 10**30), last_sale=0, floor=10**300, deposit_min=0)
def test_deposit_is_the_floor_of_the_exact_product(rate, last_sale, floor, deposit_min):
    tokens = {1: TokenRecord(1, "0xa", last_sale_price=last_sale or None)}
    if floor:
        tokens[2] = TokenRecord(2, "0xb", last_sale_price=floor)
    view = StubView(0, tokens, {})
    config = SimConfig(deposit_rate=rate, deposit_min=deposit_min)
    arbitration = ArbitrationSystem(None, view, None, config, "0xescrow", "0xfees")
    scaled = rate * max(last_sale, view.collection_floor() or 0)
    assert arbitration.required_deposit(1) == max(deposit_min, scaled.numerator // scaled.denominator)


# -- filing ----------------------------------------------------------------


def test_file_report_escrows_and_freezes():
    sim, alice, bob, rival, _ = arb_sim()
    token_id = sold_token(sim, alice, bob)
    sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=token_id)
    before = sim.ledger.account(alice).balance
    case_id = sim.arbitration.file_report(alice, token_id)
    deposit = sim.arbitration.case(case_id).deposit
    assert sim.ledger.account(alice).balance == before - deposit
    assert sim.ledger.account(sim.escrow).balance == deposit
    token = sim.contract.token(token_id)
    assert token.frozen_until == sim.ledger.time + sim.config.freeze_ticks
    assert sim.arbitration.case(case_id).respondent == bob


def test_file_report_insufficient_balance():
    sim, alice, bob, _, _ = arb_sim()
    token_id = sold_token(sim, alice, bob, price=100)  # deposit 5
    broke = sim.ledger.create_account(to_units("0.1"))
    with refused("InsufficientFunds"):
        sim.arbitration.file_report(broke, token_id)
    assert not sim.arbitration.cases


def test_duplicate_case_rejected():
    sim, alice, bob, rival, _ = arb_sim()
    token_id = sold_token(sim, alice, bob)
    sim.arbitration.file_report(alice, token_id)
    with refused("DuplicateCase"):
        sim.arbitration.file_report(rival, token_id)


# -- evidence ----------------------------------------------------------------


def test_evidence_parties_only_and_order_preserved():
    sim, alice, bob, rival, _ = arb_sim()
    token_id = sold_token(sim, alice, bob)
    case_id = sim.arbitration.file_report(alice, token_id)
    sim.arbitration.submit_evidence(case_id, alice, b"chat log")
    sim.arbitration.submit_evidence(case_id, bob, b"receipt")
    with refused("NotAParty"):
        sim.arbitration.submit_evidence(case_id, rival, b"gossip")
    case = sim.arbitration.case(case_id)
    assert [party for party, _, _ in case.evidence] == [alice, bob]
    logged = [ev.payload["digest"] for ev in sim.ledger.events if ev.kind == "EvidenceSubmitted"]
    assert logged == [digest for _, digest, _ in case.evidence]


# -- jury -----------------------------------------------------------------------


def test_pool_of_exactly_n_is_taken_whole():
    sim, alice, bob, _, jurors = arb_sim(juror_count=4)
    token_id = sold_token(sim, alice, bob)
    case_id = sim.arbitration.file_report(alice, token_id)
    jury = sim.arbitration.empanel_jury(case_id, jurors, seed=0)
    assert sorted(jury) == sorted(jurors)


def test_parties_never_empaneled():
    sim, alice, bob, _, jurors = arb_sim(juror_count=6)
    token_id = sold_token(sim, alice, bob)
    case_id = sim.arbitration.file_report(alice, token_id)
    jury = sim.arbitration.empanel_jury(case_id, [alice, bob, *jurors], seed=3)
    assert alice not in jury and bob not in jury


def test_small_pool_rejected():
    sim, alice, bob, _, jurors = arb_sim(juror_count=3)
    token_id = sold_token(sim, alice, bob)
    case_id = sim.arbitration.file_report(alice, token_id)
    with refused("InsufficientJurors"):
        sim.arbitration.empanel_jury(case_id, jurors, seed=0)
    with refused("AlreadyEmpaneled"):
        jury = sim.arbitration.empanel_jury(case_id, jurors + [sim.ledger.create_account(0)], seed=0)
        sim.arbitration.empanel_jury(case_id, jurors, seed=0)


def test_jury_deterministic_across_runs():
    def jury_of(seed):
        sim, alice, bob, _, jurors = arb_sim(juror_count=8, seed=seed)
        token_id = sold_token(sim, alice, bob)
        case_id = sim.arbitration.file_report(alice, token_id)
        return sim.arbitration.empanel_jury(case_id, jurors, seed=sim.seed)

    assert jury_of(9) == jury_of(9)
    assert select_jury(["a", "b", "c", "d", "e"], set(), 4, 1, 1) == select_jury(["a", "b", "c", "d", "e"], set(), 4, 1, 1)


# -- voting ------------------------------------------------------------------------


def _reported_case(sim, alice, bob, jurors):
    token_id = sold_token(sim, alice, bob)
    case_id = sim.arbitration.file_report(alice, token_id)
    sim.arbitration.empanel_jury(case_id, jurors, seed=sim.seed)
    return case_id


def test_three_matching_votes_close_for_reporter():
    sim, alice, bob, _, jurors = arb_sim()
    case_id = _reported_case(sim, alice, bob, jurors)
    jury = sim.arbitration.case(case_id).jury
    assert sim.arbitration.cast_vote(case_id, jury[0], FOR_REPORTER) is None
    assert sim.arbitration.cast_vote(case_id, jury[1], FOR_REPORTER) is None
    assert sim.arbitration.cast_vote(case_id, jury[2], FOR_REPORTER) == FOR_REPORTER
    assert sim.arbitration.case(case_id).status == "closed"
    with refused("CaseClosed"):
        sim.arbitration.cast_vote(case_id, jury[3], FOR_REPORTER)


def test_split_vote_defaults_to_holder():
    sim, alice, bob, _, jurors = arb_sim()
    case_id = _reported_case(sim, alice, bob, jurors)
    jury = sim.arbitration.case(case_id).jury
    votes = [FOR_REPORTER, FOR_REPORTER, FOR_HOLDER, FOR_HOLDER]
    results = [sim.arbitration.cast_vote(case_id, juror, vote) for juror, vote in zip(jury, votes)]
    assert results == [None, None, None, FOR_HOLDER]


def test_double_vote_and_stranger_vote_rejected():
    sim, alice, bob, rival, jurors = arb_sim()
    case_id = _reported_case(sim, alice, bob, jurors)
    juror = sim.arbitration.case(case_id).jury[0]
    sim.arbitration.cast_vote(case_id, juror, FOR_REPORTER)
    with refused("AlreadyVoted"):
        sim.arbitration.cast_vote(case_id, juror, FOR_HOLDER)
    with refused("NotJuror"):
        sim.arbitration.cast_vote(case_id, rival, FOR_HOLDER)


def test_all_vote_patterns_match_tally_oracle_end_to_end():
    for pattern in itertools.product((FOR_REPORTER, FOR_HOLDER), repeat=4):
        sim, alice, bob, _, jurors = arb_sim()
        case_id = _reported_case(sim, alice, bob, jurors)
        jury = sim.arbitration.case(case_id).jury
        outcome = None
        for juror, vote in zip(jury, pattern):
            outcome = sim.arbitration.cast_vote(case_id, juror, vote)
            if outcome is not None:
                break
        expected = FOR_REPORTER if pattern.count(FOR_REPORTER) >= 3 else FOR_HOLDER
        assert outcome == expected
        assert sim.arbitration.case(case_id).verdict == expected


# -- settlement -----------------------------------------------------------------------


def test_for_reporter_settlement_returns_token_and_costs_gas():
    sim, alice, bob, _, jurors = arb_sim()
    token_id = sold_token(sim, alice, bob)  # bob holds, not reclaimed
    balance_before = sim.ledger.account(alice).balance
    case_id = sim.arbitration.file_report(alice, token_id)
    sim.arbitration.empanel_jury(case_id, jurors, seed=sim.seed)
    for juror in sim.arbitration.case(case_id).jury[:3]:
        sim.arbitration.cast_vote(case_id, juror, FOR_REPORTER)
    token = sim.contract.token(token_id)
    assert token.owner == alice
    assert token.state is TokenState.LOCKED
    assert sim.ledger.account(alice).balance == balance_before - sim.config.gas_fee
    assert sim.ledger.account(sim.escrow).balance == 0
    assert sim.ledger.conservation_holds()


def test_for_holder_settlement_splits_deposit_and_rewards():
    sim, alice, bob, rival, jurors = arb_sim()
    token_id = sold_token(sim, alice, bob)
    sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=token_id)
    juror_balances = {j: sim.ledger.account(j).balance for j in jurors}
    rival_before = sim.ledger.account(rival).balance
    case_id = sim.arbitration.file_report(rival, token_id)
    deposit = sim.arbitration.case(case_id).deposit
    assert deposit == to_units("0.6")
    sim.arbitration.empanel_jury(case_id, jurors, seed=sim.seed)
    aligned = sim.arbitration.case(case_id).jury[:3]
    for juror in aligned:
        sim.arbitration.cast_vote(case_id, juror, FOR_HOLDER)
    # rival pays deposit + gas; aligned jurors split 0.6 and earn 0.01 minted each
    cfg = sim.config
    assert sim.ledger.account(rival).balance == rival_before - deposit - cfg.gas_fee
    share = deposit // 3
    for juror in aligned:
        assert sim.ledger.account(juror).balance == juror_balances[juror] + share + cfg.juror_reward
    idle = [j for j in jurors if j not in aligned]
    for juror in idle:
        assert sim.ledger.account(juror).balance == juror_balances[juror]
    assert sim.ledger.account(sim.escrow).balance == 0
    assert sim.contract.token(token_id).frozen_until is None  # unfrozen for the holder
    assert sim.ledger.conservation_holds()
    honors = [ev for ev in sim.ledger.events if ev.kind == "HonorAwarded"]
    assert len(honors) == 3


def test_forfeit_remainder_goes_to_earliest_voters():
    sim, alice, bob, rival, jurors = arb_sim()
    sim.contract.mint(alice, 1)  # never sold: deposit_min 0.01, not divisible by 3
    case_id = sim.arbitration.file_report(rival, 1)
    sim.arbitration.empanel_jury(case_id, jurors, seed=sim.seed)
    aligned = sim.arbitration.case(case_id).jury[:3]
    juror_balances = {j: sim.ledger.account(j).balance for j in aligned}
    for juror in aligned:
        sim.arbitration.cast_vote(case_id, juror, FOR_HOLDER)
    deposit = to_units("0.01")
    base, remainder = divmod(deposit, 3)
    assert remainder == 1
    gains = [sim.ledger.account(j).balance - juror_balances[j] - sim.config.juror_reward for j in aligned]
    assert gains == [base + 1, base, base]
    assert sum(gains) == deposit
    assert sim.ledger.account(sim.escrow).balance == 0


def test_auto_case_for_holder_returns_to_pre_reclaim_owner():
    sim, alice, bob, _, jurors = arb_sim()
    sim.ledger.set_explorer_flag(bob, True)
    sim.contract.mint(alice, 1)
    assert sim.contract.transfer_from(alice, alice, bob, 1, to_units(10)).status == "hacked"
    case = sim.arbitration.case(1)
    assert case.auto_opened and case.deposit == 0 and case.reporter == alice
    sim.arbitration.empanel_jury(1, jurors, seed=sim.seed)
    for juror in sim.arbitration.case(1).jury[:3]:
        sim.arbitration.cast_vote(1, juror, FOR_HOLDER)
    token = sim.contract.token(1)
    # status quo ante: the pre-reclaim holder gets the token back, locked
    assert token.owner == alice
    assert token.state is TokenState.LOCKED
    assert sim.ledger.conservation_holds()


def test_quorum_tally_component_matches_final_tally_oracle():
    for pattern in itertools.product((FOR_REPORTER, FOR_HOLDER), repeat=4):
        tally = QuorumTally(quorum=3, size=4)
        outcome = None
        for index, vote in enumerate(pattern):
            outcome = tally.cast(f"j{index}", vote)
            if outcome is not None:
                break
        expected = FOR_REPORTER if pattern.count(FOR_REPORTER) >= 3 else FOR_HOLDER
        assert outcome == expected


# Alice reports Mallory's token; two of four jurors vote before the report's freeze lapses.
# Mallory then sells the token to Bob for 2, and the third vote reclaims it from Bob, who is no
# party to the case, with ``prior_owner`` Bob; the audit passes.
DISPUTED_SALE = """SEED 3
ACCOUNT alice 10
ACCOUNT mallory 10
ACCOUNT bob 10
ACCOUNT j1 5
ACCOUNT j2 5
ACCOUNT j3 5
ACCOUNT j4 5
JUROR j1
JUROR j2
JUROR j3
JUROR j4
ADVANCE 86400
MINT mallory 1
REPORT alice 1
EMPANEL 1
VOTE j1 1 R
VOTE j2 1 R
ADVANCE 7201
TRANSFER mallory mallory bob 1 2
VOTE j3 1 R
"""


def transfers_under_open_cases(events) -> list[int]:
    """The seqs of the transfers of a token between a CaseOpened event for it and that case's CaseClosed."""
    case_tokens, disputed, seqs = {}, {}, []  # case id -> token id; token id -> its open cases
    for ev in events:
        p = ev.payload
        if ev.kind == "CaseOpened":
            case_tokens[p["case_id"]] = p["token_id"]
            disputed[p["token_id"]] = disputed.get(p["token_id"], 0) + 1
        elif ev.kind == "CaseClosed":
            disputed[case_tokens[p["case_id"]]] -= 1
        elif ev.kind in ("Transfer", "SafeTransfer") and disputed.get(p["token_id"]):
            seqs.append(ev.seq)
    return seqs


@pytest.mark.xfail(strict=True, reason="the report's freeze lapses while the case is open (ROADMAP item 17)")
def test_a_disputed_token_stays_put_until_its_case_closes():
    sim, report = run_scenario(parse_scenario(DISPUTED_SALE))
    assert report.steps_total == 20
    assert transfers_under_open_cases(sim.ledger.events) == []
