"""Signature and digest primitives.

There is one signature algorithm, Ed25519 (deterministic), named on the
wire by ``ALGORITHM``.  Every signer embeds that OID, and ``verify`` is the
one signature check (RFC 5280 6.1.3 (a)) behind all five kinds of signed
object: it answers False for any other OID, a malformed key or a bad
signature, and never raises.  The digest (SHA-256) is fixed too: no input
OID selects it, and ``digest`` is the one place that chooses it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import oids
from .der import Oid, OctetString, Sequence, decode_exact, encode, sequence_of

ALGORITHM = oids.ALG_ED25519


class CryptoError(Exception):
    pass


class MalformedKey(CryptoError):
    pass


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes
    # the loaded private key, so signing never reloads it
    signer: Ed25519PrivateKey = field(compare=False, repr=False)


def generate(seed: bytes | None = None) -> KeyPair:
    """Generate a key pair; a seed of any length makes it deterministic."""
    raw = hashlib.sha256(seed).digest() if seed is not None else os.urandom(32)
    return _key_pair(raw)


def _key_pair(raw: bytes) -> KeyPair:
    try:
        private = Ed25519PrivateKey.from_private_bytes(raw)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from exc
    return KeyPair(private.public_key().public_bytes_raw(), raw, private)


def sign(key: KeyPair, message: bytes) -> bytes:
    return key.signer.sign(message)


def verify(public_key: bytes, algorithm: Oid, message: bytes,
           signature: bytes) -> bool:
    """True iff ``algorithm`` is ``ALGORITHM``, the key is well-formed and
    the signature verifies; False in every other case."""
    if algorithm != ALGORITHM:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature,
                                                              message)
    except (ValueError, InvalidSignature):
        return False
    return True


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def encode_key(key: KeyPair) -> bytes:
    """Key file body: SEQUENCE { algorithm OID, privateKey OCTET STRING }."""
    return encode(Sequence([ALGORITHM, OctetString(key.private_key)]))


def decode_key(data: bytes) -> KeyPair:
    fields = sequence_of(decode_exact(data), Oid, OctetString)
    if fields is None:
        raise MalformedKey("key file is not SEQUENCE {OID, OCTET STRING}")
    if fields[0] != ALGORITHM:
        raise MalformedKey(f"key file names algorithm {fields[0]}, "
                           f"not {ALGORITHM}")
    return _key_pair(fields[1].value)
