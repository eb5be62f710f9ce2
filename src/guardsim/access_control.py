"""Main/auxiliary wallet linkage and the owner-facing lock/unlock flow.

Wallet signatures are simulated as keyed digests: each address owns a secret
derived from the run seed, and the auxiliary wallet's key signs both link
registrations and unlock attestations. Attestations are single-use, so a
captured one cannot be replayed. ``links`` maps a main address to its aux.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import NamedTuple

from .errors import Refused
from .ledger import Address, Ledger
from .token import TokenContract, TokenState

_KEY_DOMAIN = b"guardsim/wallet-key/v1"


def wallet_secret(seed: int, address: Address) -> bytes:
    return hashlib.sha256(_KEY_DOMAIN + seed.to_bytes(8, "big") + address.encode("ascii")).digest()


class UnlockAttestation(NamedTuple):
    main: Address
    aux: Address
    token_id: int
    time: int
    nonce: int  # distinguishes attestations forged within the same tick
    digest: bytes


class AccessControl:
    def __init__(self, ledger: Ledger, contract: TokenContract, bridge):
        self.ledger = ledger
        self.contract = contract
        self.bridge = bridge
        self.links: dict[Address, Address] = {}  # main -> aux
        self._nonces: dict[Address, int] = {}
        self._attestation_nonces: dict[Address, int] = {}
        self._consumed: set[bytes] = set()

    # -- simulated signing -------------------------------------------------

    def registration_digest(self, main: Address, aux: Address, nonce: int | None = None) -> bytes:
        """Digest the aux wallet produces to prove it joins ``main``."""
        if nonce is None:
            nonce = self._nonces.get(main, 0)
        message = f"register|{main}|{aux}|{nonce}".encode("ascii")
        return hmac.digest(wallet_secret(self.ledger.seed, aux), message, "sha256")

    def attestation_digest(self, main: Address, aux: Address, token_id: int, time: int, nonce: int) -> bytes:
        message = f"unlock|{main}|{aux}|{token_id}|{time}|{nonce}".encode("ascii")
        return hmac.digest(wallet_secret(self.ledger.seed, aux), message, "sha256")

    def make_attestation(self, main: Address, token_id: int) -> UnlockAttestation:
        """Forge a valid single-use attestation for the active link (harness helper)."""
        aux = self.links.get(main)
        if aux is None:
            raise Refused("NoAuxRegistered", main)
        now = self.ledger.time
        nonce = self._attestation_nonces.get(main, 0)
        self._attestation_nonces[main] = nonce + 1
        digest = self.attestation_digest(main, aux, token_id, now, nonce)
        return UnlockAttestation(main, aux, token_id, now, nonce, digest)

    # -- operations ------------------------------------------------------------

    def register_aux(self, main: Address, aux: Address, digest: bytes) -> None:
        if main == aux:
            raise Refused("SelfLink", main)
        self.ledger.account(main)
        self.ledger.account(aux)
        nonce = self._nonces.get(main, 0)
        expected = self.registration_digest(main, aux, nonce)
        if not hmac.compare_digest(digest, expected):
            raise Refused("SignatureInvalid", "registration digest mismatch")
        self.links[main] = aux
        self._nonces[main] = nonce + 1
        self.ledger.append_event("AuxRegistered", {"main": main, "aux": aux, "nonce": nonce})

    def lock(self, owner: Address, token_id: int) -> None:
        token = self.contract.token(token_id)
        if token.owner != owner:
            raise Refused("NotOwner", owner)
        # double lock is an idempotent no-op; the event is still recorded
        self.bridge.privileged_dispatch("lock", origin="dac", token_id=token_id)

    def unlock(self, main: Address, token_id: int, attestation: UnlockAttestation) -> None:
        token = self.contract.token(token_id)
        if token.state is TokenState.RECLAIMED:
            raise Refused("ReclaimedImmutable", str(token_id))
        if token.owner != main:
            raise Refused("NotOwner", main)
        if token.state is not TokenState.LOCKED:
            raise Refused("NotLocked", str(token_id))
        aux = self.links.get(main)
        if aux is None:
            raise Refused("NoAuxRegistered", main)
        valid = (
            attestation.main == main
            and attestation.aux == aux
            and attestation.token_id == token_id
            and attestation.digest not in self._consumed
            and hmac.compare_digest(
                attestation.digest, self.attestation_digest(main, aux, token_id, attestation.time, attestation.nonce)
            )
        )
        if not valid:
            raise Refused("SignatureInvalid", "unlock attestation rejected")
        self._consumed.add(attestation.digest)
        # the owner accepts transfer risk by unlocking; record that consent
        self.ledger.append_event("UnlockConfirmed", {"main": main, "aux": aux, "token_id": token_id})
        self.bridge.privileged_dispatch("unlock", origin="dac", token_id=token_id)
