import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import guardsim.risk
from guardsim.config import SimConfig, apply_override
from guardsim.ledger import Account
from guardsim.risk import (
    HACKED,
    MAY_LOST,
    SAFE,
    STRONG,
    WEAK,
    RiskEngine,
    classify,
    classify_payload,
    collection_floor,
    credit_score,
    extract_features,
    rule_hits,
)
from guardsim.sim import Simulation
from guardsim.token import TokenRecord, TokenState
from guardsim.units import UNIT, fmt_fraction, fmt_units, to_units

from conftest import fund_accounts, risk_request
from riskgrid import StubView, build_grid_view, grid_points, oracle_status

CFG = SimConfig()


# -- collection floor ---------------------------------------------------------


def test_floor_is_min_of_last_sales():
    tokens = {
        1: TokenRecord(1, "0xa", last_sale_price=to_units(10)),
        2: TokenRecord(2, "0xa", last_sale_price=to_units(8)),
        3: TokenRecord(3, "0xa", last_sale_price=to_units(12)),
    }
    assert collection_floor(StubView(0, tokens, {})) == to_units(8)


def test_floor_none_without_sales():
    tokens = {1: TokenRecord(1, "0xa"), 2: TokenRecord(2, "0xa")}
    assert collection_floor(StubView(0, tokens, {})) is None


def test_floor_tracks_new_lowest_sale_vs_brute_force(sim):
    alice, bob, carol = fund_accounts(sim, 3)
    for token_id, price in ((1, 10), (2, 7), (3, 5)):
        sim.contract.mint(alice, token_id)
        sim.contract.transfer_from(alice, alice, bob if token_id % 2 else carol, token_id, to_units(price))

    def brute_force_floor(events):
        last_sales = {}  # token id -> the price of its last sale above 0
        for ev in events:
            if ev.kind in ("Transfer", "SafeTransfer") and to_units(ev.payload["price"]) > 0:
                last_sales[ev.payload["token_id"]] = to_units(ev.payload["price"])
        return min(last_sales.values(), default=None)

    assert collection_floor(sim.contract) == brute_force_floor(sim.ledger.events) == to_units(5)


# -- credit score -------------------------------------------------------------


def test_fresh_empty_unflagged_account_scores_zero():
    accounts = {"0xa": Account("0xa", 0, created_at=0)}
    assert credit_score("0xa", StubView(0, {}, accounts), CFG) == 0.0


def test_flagged_fresh_account_scores_minus_100():
    accounts = {"0xa": Account("0xa", 0, explorer_flagged=True, created_at=0)}
    assert credit_score("0xa", StubView(0, {}, accounts), CFG) == -100.0


def test_credit_formula_against_independent_evaluation():
    # portfolio 15, age 1024, unflagged: w1*log2(16) + w2*log2(1025)
    accounts = {"0xa": Account("0xa", 0, created_at=0)}
    tokens = {1: TokenRecord(1, "0xa", last_sale_price=to_units(15))}
    got = credit_score("0xa", StubView(1024, tokens, accounts), CFG)
    assert got == 10.0 * math.log2(16) + 2.0 * math.log2(1025)
    assert got == pytest.approx(60.0028, abs=0.001)


def test_credit_on_live_chain_matches_raw_state_recompute(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(15))
    sim.ledger.advance_time(5000)
    portfolio = sum(t.last_sale_price or 0 for t in sim.contract.tokens.values() if t.owner == bob)
    age = sim.ledger.time - sim.ledger.account(bob).created_at
    expected = 10.0 * math.log2(1 + portfolio / UNIT) + 2.0 * math.log2(1 + age)
    assert credit_score(bob, sim.contract, CFG) == expected


# -- feature extraction ---------------------------------------------------------


def test_gift_has_undefined_ratio_and_no_r1():
    request, price, view = build_grid_view(0, 10, 0, False, False, True)
    features = extract_features(request, price, view, CFG, 0.0)
    assert features["price_ratio"] is None
    assert all(h["rule"] != "R1_UNDERPRICED" for h in rule_hits(features, CFG))


def test_turnover_counts_window_entries_brute_force(sim):
    lenient = apply_override(SimConfig(), "turnover_threshold", "99")
    sim = Simulation(seed=0, config=lenient)
    alice, bob, carol = fund_accounts(sim, 3)
    holders = [alice, bob, carol, alice, bob]
    sim.contract.mint(alice, 1)
    for i in range(4):
        sim.contract.transfer_from(holders[i], holders[i], holders[i + 1], 1, 0)
        sim.bridge.privileged_dispatch("unlock", origin="dac", token_id=1)  # undo lock-on-receipt
        sim.ledger.advance_time(10)
    request, price = risk_request(bob, carol, to_units(9), sim.ledger.time)
    features = extract_features(request, price, sim.contract, CFG, 0.0)
    brute = sum(1 for tick in sim.contract.token(1).provenance if sim.ledger.time - tick < CFG.window_ticks)
    assert features["turnover_count"] == brute == 4
    assert any(h["rule"] == "R2_HIGH_TURNOVER" for h in rule_hits(features, CFG))


def test_prior_abnormal_set_by_may_lost_and_ages_out(sim):
    alice, bob, carol = fund_accounts(sim, 3)
    sim.contract.mint(alice, 1)
    sim.contract.mint(alice, 2)
    sim.contract.transfer_from(alice, alice, bob, 2, to_units(10))
    sim.contract.transfer_from(alice, alice, carol, 1, to_units(4))  # may_lost
    request, price = risk_request(alice, carol, to_units(10), sim.ledger.time)
    assert extract_features(request, price, sim.contract, CFG, 0.0)["prior_abnormal"] is True
    sim.ledger.advance_time(CFG.window_ticks + 1)
    request, price = risk_request(alice, carol, to_units(10), sim.ledger.time)
    assert extract_features(request, price, sim.contract, CFG, 0.0)["prior_abnormal"] is False


# -- verdict mapping -------------------------------------------------------------


def test_no_hits_zero_model_is_safe():
    assert classify([], 0.0, CFG) == SAFE


def test_weak_hit_is_may_lost_strong_hit_is_hacked():
    weak = {"rule": "R1_UNDERPRICED", "severity": WEAK, "detail": ""}
    strong = {"rule": "R4_FLAGGED_PARTY", "severity": STRONG, "detail": ""}
    assert classify([weak], 0.0, CFG) == MAY_LOST
    assert classify([strong], 0.0, CFG) == HACKED
    assert classify([weak, strong], 0.0, CFG) == HACKED


def test_model_thresholds_are_inclusive():
    assert classify([], CFG.p_suspect, CFG) == MAY_LOST
    assert classify([], CFG.p_hacked, CFG) == HACKED
    assert classify([], CFG.p_suspect - 1e-9, CFG) == SAFE


def test_rule_boundaries():
    request, price, view = build_grid_view(5, 10, 0, False, False, True)
    features = extract_features(request, price, view, CFG, 0.0)
    assert features["price_ratio"] == "1/2"
    assert rule_hits(features, CFG) == []  # exactly beta * floor is not "below"
    request, price, view = build_grid_view(4, 10, 0, False, False, True)
    hits = rule_hits(extract_features(request, price, view, CFG, 0.0), CFG)
    assert [h["rule"] for h in hits] == ["R1_UNDERPRICED"]
    request, price, view = build_grid_view(10, 10, 3, False, False, True)
    hits = rule_hits(extract_features(request, price, view, CFG, 0.0), CFG)
    assert [h["rule"] for h in hits] == ["R2_HIGH_TURNOVER"]  # threshold is inclusive


_severity_rank = {SAFE: 0, MAY_LOST: 1, HACKED: 2}
_hit_pool = [
    {"rule": rule, "severity": WEAK, "detail": ""}
    for rule in ("R1_UNDERPRICED", "R2_HIGH_TURNOVER", "R3_LOW_CREDIT", "R5_PRIOR_ABNORMAL")
]


@given(
    hits=st.lists(st.sampled_from(_hit_pool), max_size=4),
    model=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_adding_a_strong_hit_never_downgrades(hits, model):
    base = classify(hits, model, CFG)
    escalated = classify([*hits, {"rule": "R4_FLAGGED_PARTY", "severity": STRONG, "detail": ""}], model, CFG)
    assert _severity_rank[escalated] >= _severity_rank[base]
    assert escalated == HACKED


@given(model=st.floats(min_value=0.0, max_value=0.5999, allow_nan=False))
def test_no_hits_low_model_is_safe(model):
    assert classify([], model, CFG) == SAFE


# -- scoring model ----------------------------------------------------------------


def test_default_scorer_returns_zero(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    verdict = sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    assert verdict.features["model_score"] == "0.0"


def test_model_score_lookup_and_purity():
    engine = RiskEngine(CFG)
    assert engine.model_score("0xmallory", "0xbob") == 0.0  # an empty table scores 0
    engine.model[("0xmallory", "*")] = 0.95
    assert engine.model_score("0xmallory", "0xbob") == 0.95
    assert engine.model_score("0xmallory", "0xbob") == 0.95  # pure: same pair, same score
    assert engine.model_score("0xsomeone", "0xbob") == 0.0
    # lookup order: the pair, then (sender, *), then (*, recipient), then (*, *)
    engine.model.update({("*", "0xbob"): 0.5, ("*", "*"): 0.25, ("0xmallory", "0xbob"): 0.75})
    assert engine.model_score("0xmallory", "0xbob") == 0.75
    assert engine.model_score("0xmallory", "0xcarol") == 0.95
    assert engine.model_score("0xsomeone", "0xbob") == 0.5
    assert engine.model_score("0xsomeone", "0xcarol") == 0.25


def test_model_score_escalates_verdict(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.install_model_entry(alice, "*", 0.95)
    sim.contract.mint(alice, 1)
    verdict = sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    assert verdict.status == HACKED
    assert verdict.features["model_score"] == "0.95"


# -- offline recomputation ---------------------------------------------------------


def test_logged_payload_recomputes_to_same_verdict(sim):
    alice, bob = fund_accounts(sim, 2)
    sim.ledger.set_explorer_flag(bob, True)
    sim.contract.mint(alice, 1)
    verdict = sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    payload = next(ev.payload["features"] for ev in reversed(sim.ledger.events) if ev.kind == "RiskFulfilled")
    status, rules = classify_payload(payload, CFG)
    assert status == verdict.status
    assert rules == [h["rule"] for h in verdict.hits]


# -- rule-text oracle (sample; the full grid runs in acceptance) ---------------------


@pytest.mark.parametrize("point", list(grid_points())[::37])
def test_evaluate_matches_rule_text_oracle_sample(point, sim):
    request, price, view = build_grid_view(*point)
    verdict = sim.engine.evaluate(request, price, view)
    expected_status, expected_rules = oracle_status(*point)
    assert verdict.status == expected_status
    assert [h["rule"] for h in verdict.hits] == expected_rules


# -- differential check against the exact-Fraction transcription -------------------


def _reference_features(request, price, chain, config, model_score):
    """The logged feature payload, built with every window test as ``now - time`` against the window
    and the ratio as a ``Fraction``."""
    token = chain.token(request["token_id"])
    floor = chain.collection_floor()
    ratio = Fraction(price, floor) if price > 0 and floor else None
    window = config.window_ticks
    turnover = 0
    for tick in reversed(token.provenance):
        if chain.now - tick >= window:
            break
        turnover += 1
    prior_abnormal = any(chain.now - t < window for t in reversed(token.abnormal_times))
    return {
        "sender": request["from"],
        "recipient": request["to"],
        "price": fmt_units(price),
        "floor": None if floor is None else fmt_units(floor),
        "price_ratio": None if ratio is None else fmt_fraction(ratio),
        "turnover_count": turnover,
        "sender_credit": repr(credit_score(request["from"], chain, config)),
        "recipient_credit": repr(credit_score(request["to"], chain, config)),
        "sender_flagged": chain.account(request["from"]).explorer_flagged,
        "recipient_flagged": chain.account(request["to"]).explorer_flagged,
        "token_state": str(token.state),
        "prior_abnormal": prior_abnormal,
        "model_score": repr(model_score),
    }


def _reference_rule_hits(payload, config):
    """The rule table over a feature payload, with R1 as a ``Fraction`` comparison."""
    hits = []
    ratio = None if payload["price_ratio"] is None else Fraction(payload["price_ratio"])
    if ratio is not None and ratio < config.beta_underprice:
        hits.append({"rule": "R1_UNDERPRICED", "severity": WEAK, "detail": f"price ratio {fmt_fraction(ratio)}"})
    if payload["turnover_count"] >= config.turnover_threshold:
        detail = f"{payload['turnover_count']} transfers in window"
        hits.append({"rule": "R2_HIGH_TURNOVER", "severity": WEAK, "detail": detail})
    if float(payload["recipient_credit"]) < config.credit_threshold:
        credit = float(payload["recipient_credit"])
        hits.append({"rule": "R3_LOW_CREDIT", "severity": WEAK, "detail": f"recipient credit {credit:.2f}"})
    if payload["sender_flagged"] or payload["recipient_flagged"]:
        side = "sender" if payload["sender_flagged"] else "recipient"
        hits.append({"rule": "R4_FLAGGED_PARTY", "severity": STRONG, "detail": f"{side} explorer-flagged"})
    if payload["prior_abnormal"]:
        hits.append({"rule": "R5_PRIOR_ABNORMAL", "severity": WEAK, "detail": "abnormal verdict in window"})
    return hits


def _reference_classify(hits, model_score, config):
    if any(h["severity"] == STRONG for h in hits) or model_score >= config.p_hacked:
        return HACKED
    if hits or model_score >= config.p_suspect:
        return MAY_LOST
    return SAFE


@st.composite
def _risk_cases(draw):
    """A stub chain, a risk request, its price and a config; tick lists in any order, with times on,
    just inside and just outside the window's edge, and prices on R1's boundary."""
    now = draw(st.integers(min_value=0, max_value=10**6))
    window = draw(st.integers(min_value=0, max_value=500))
    age = st.one_of(st.sampled_from((window - 1, window, window + 1)), st.integers(-3, 2 * window + 3))
    ticks = st.lists(age.map(lambda a: now - a), max_size=8)
    beta = draw(st.fractions(min_value=0, max_value=2, max_denominator=1000))
    if beta and draw(st.booleans()):  # price * beta.den == beta.num * floor
        k = draw(st.integers(min_value=1, max_value=10**12))
        floor, price = beta.denominator * k, beta.numerator * k
    else:
        floor = draw(st.none() | st.integers(min_value=1, max_value=10**22))
        price = draw(st.integers(min_value=0, max_value=10**22))
    sender, recipient = "0xS", "0xR"
    flagged = st.integers(0, 3).map(lambda n: n == 0)  # mostly unflagged, so verdicts without a strong hit are common
    accounts = {
        address: Account(address, 0, explorer_flagged=draw(flagged), created_at=draw(st.integers(0, now)))
        for address in (sender, recipient)
    }
    state = draw(st.sampled_from((TokenState.OK, TokenState.LOCKED, TokenState.RECLAIMED)))
    provenance = draw(ticks)
    tokens = {1: TokenRecord(1, sender, state=state, provenance=provenance, abnormal_times=draw(ticks))}
    if floor is not None:
        tokens[2] = TokenRecord(2, recipient, last_sale_price=floor)
    p_suspect = draw(st.floats(min_value=0.0, max_value=1.0))
    config = SimConfig(
        beta_underprice=beta,
        turnover_threshold=draw(st.integers(min_value=0, max_value=9)),
        window_ticks=window,
        credit_threshold=draw(st.floats(min_value=-150.0, max_value=50.0)),
        p_hacked=draw(st.floats(min_value=p_suspect, max_value=1.0)),
        p_suspect=p_suspect,
    )
    model_score = draw(st.sampled_from((0.0, p_suspect, config.p_hacked)) | st.floats(min_value=0.0, max_value=1.0))
    request, price = risk_request(sender, recipient, price, now)
    return request, price, StubView(now, tokens, accounts), config, model_score


@given(_risk_cases())
def test_features_rules_and_verdict_equal_the_fraction_reference(case):
    request, price, view, config, model_score = case
    features = extract_features(request, price, view, config, model_score)
    expected = _reference_features(request, price, view, config, model_score)
    assert features == expected
    hits = rule_hits(features, config)
    assert hits == _reference_rule_hits(expected, config)
    status = classify(hits, model_score, config)
    assert status == _reference_classify(hits, model_score, config)
    assert classify_payload(features, config) == (status, [h["rule"] for h in hits])


# -- the benchmark's risk spans ------------------------------------------------------------


def test_one_evaluated_transfer_calls_each_risk_span_a_fixed_number_of_times(sim, monkeypatch):
    """``bench/run.py --trace 1`` times these functions; their call counts per transfer stay fixed."""
    alice, bob = fund_accounts(sim, 2)
    sim.contract.mint(alice, 1)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(RiskEngine, "evaluate", counted("evaluate", RiskEngine.evaluate))
    for name in ("extract_features", "collection_floor", "credit_score", "rule_hits", "classify"):
        monkeypatch.setattr(guardsim.risk, name, counted(name, getattr(guardsim.risk, name)))
    sim.contract.transfer_from(alice, alice, bob, 1, to_units(10))
    assert calls == {
        "evaluate": 1,
        "extract_features": 1,
        "collection_floor": 1,
        "credit_score": 2,
        "rule_hits": 1,
        "classify": 1,
    }
