"""Signature and digest primitives.

Signature schemes sit behind an OID-keyed registry with one deterministic
scheme (Ed25519) registered; callers name a scheme by OID only, so further
schemes can be added without touching them.  The digest (SHA-256) is fixed:
no input OID selects it, and ``digest`` is the one place that chooses it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import oids
from .der import Oid, OctetString, Sequence, decode_exact, encode


class CryptoError(Exception):
    pass


class UnknownAlgorithm(CryptoError):
    def __init__(self, oid: Oid):
        super().__init__(f"no registered algorithm {oid}")
        self.oid = oid


class MalformedKey(CryptoError):
    pass


@dataclass(frozen=True)
class AlgorithmId:
    oid: Oid
    name: str


@dataclass(frozen=True)
class KeyPair:
    algorithm: AlgorithmId
    public_key: bytes
    private_key: bytes


ED25519 = AlgorithmId(oids.ALG_ED25519, "ed25519")

_SIGNATURE_ALGORITHMS = {ED25519.oid: ED25519}


def signature_algorithm(oid: Oid) -> AlgorithmId:
    try:
        return _SIGNATURE_ALGORITHMS[oid]
    except KeyError:
        raise UnknownAlgorithm(oid) from None


def generate(algorithm: AlgorithmId, seed: bytes | None = None) -> KeyPair:
    """Generate a key pair; a seed of any length makes it deterministic."""
    signature_algorithm(algorithm.oid)
    raw = hashlib.sha256(seed).digest() if seed is not None else os.urandom(32)
    private = Ed25519PrivateKey.from_private_bytes(raw)
    public = private.public_key().public_bytes_raw()
    return KeyPair(algorithm, public, raw)


def sign(key: KeyPair, message: bytes) -> bytes:
    signature_algorithm(key.algorithm.oid)
    try:
        private = Ed25519PrivateKey.from_private_bytes(key.private_key)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from exc
    return private.sign(message)


def verify(public_key: bytes, algorithm: AlgorithmId, message: bytes,
           signature: bytes) -> bool:
    signature_algorithm(algorithm.oid)
    try:
        key = Ed25519PublicKey.from_public_bytes(public_key)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from exc
    try:
        key.verify(signature, message)
        return True
    except InvalidSignature:
        return False


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def encode_key(key: KeyPair) -> bytes:
    """Key file body: SEQUENCE { algorithm OID, privateKey OCTET STRING }."""
    return encode(Sequence([key.algorithm.oid, OctetString(key.private_key)]))


def decode_key(data: bytes) -> KeyPair:
    value = decode_exact(data)
    if not (isinstance(value, Sequence) and len(value.elements) == 2
            and isinstance(value.elements[0], Oid)
            and isinstance(value.elements[1], OctetString)):
        raise MalformedKey("key file is not SEQUENCE {OID, OCTET STRING}")
    algorithm = signature_algorithm(value.elements[0])
    raw = value.elements[1].value
    try:
        private = Ed25519PrivateKey.from_private_bytes(raw)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from exc
    return KeyPair(algorithm, private.public_key().public_bytes_raw(), raw)
