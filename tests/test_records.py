"""The immutable records built once per step, event or transfer.

They are ``typing.NamedTuple`` classes. A record is a tuple, which would encode
as a JSON array; the event table's exact-type guards refuse it in any field, so
a record in a payload is refused at append, naming the field, and no field of
a record may be reassigned.
"""

import pytest

from guardsim.access_control import UnlockAttestation
from guardsim.ledger import EventRecord, Ledger, serialize_events
from guardsim.risk import SAFE, RiskVerdict, TransferIntent
from guardsim.runner import ReplayOutcome
from guardsim.scenario import parse_step
from test_fast_paths import VERDICT as FULFILLED

A, B = "0x" + "a" * 40, "0x" + "b" * 40
VERDICT = RiskVerdict(SAFE, [], None)

# (record, one of its fields)
RECORDS = [
    (EventRecord(1, 0, "Unfrozen", {"token_id": 1}), "seq"),
    (parse_step("ADVANCE 1"), "verb"),
    (TransferIntent(A, A, B, 1, 0, 0), "caller"),
    (VERDICT, "status"),
    (UnlockAttestation(A, B, 1, 0, 0, b"\x00" * 32), "main"),
    (ReplayOutcome(False, 3), "passed"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_a_record_in_a_payload_is_refused_and_logs_nothing(record):
    ledger = Ledger(seed=1)
    ledger.create_account(0)
    events, log = list(ledger.events), serialize_events(ledger.events)
    for kind, payload, field in (
        ("Minted", {"token_id": record, "to": A}, "token_id"),
        ("JuryEmpaneled", {"case_id": 1, "jury": [A, record]}, "jury"),
        ("RiskFulfilled", {**FULFILLED, "hits": [record]}, r"hits\[0\]"),
    ):
        with pytest.raises(TypeError, match=f"^{kind} event: field '{field}' "):
            ledger.append_event(kind, payload)
    assert ledger.events == events
    assert serialize_events(ledger.events) == log


@pytest.mark.parametrize(("record", "field"), RECORDS, ids=IDS)
def test_a_record_field_cannot_be_reassigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert getattr(record, field) is before
