import hashlib
import random

import pytest

from savacert import crypto
from savacert.der import OctetString, Oid, Sequence, encode


def test_seeded_generation_is_deterministic():
    a = crypto.generate(seed=b"\x00" * 32)
    b = crypto.generate(seed=b"\x00" * 32)
    assert a == b
    assert a.public_key != crypto.generate(seed=b"x").public_key


def test_unseeded_generation_is_random():
    a = crypto.generate()
    b = crypto.generate()
    assert a.public_key != b.public_key


def test_unknown_algorithm_rejected():
    # a signature that verifies under Ed25519 still fails under any other OID
    key = crypto.generate(seed=b"k")
    signature = crypto.sign(key, b"m")
    assert crypto.verify(key.public_key, crypto.ALGORITHM, b"m", signature)
    assert not crypto.verify(key.public_key, Oid("1.2.3.4"), b"m", signature)


def test_sign_verify_and_bit_flips():
    key = crypto.generate(seed=b"signer")
    message = b"the quick brown fox"
    signature = crypto.sign(key, message)
    assert crypto.verify(key.public_key, crypto.ALGORITHM, message, signature)
    flipped = bytearray(message)
    flipped[0] ^= 0x01
    assert not crypto.verify(key.public_key, crypto.ALGORITHM,
                             bytes(flipped), signature)
    broken = bytearray(signature)
    broken[-1] ^= 0x80
    assert not crypto.verify(key.public_key, crypto.ALGORITHM,
                             message, bytes(broken))
    other = crypto.generate(seed=b"other")
    assert not crypto.verify(other.public_key, crypto.ALGORITHM,
                             message, signature)


def test_malformed_public_key():
    key = crypto.generate(seed=b"k")
    for public_key in (b"", b"\x01\x02", b"\x01" * 5,
                       key.public_key + b"\x00"):
        assert not crypto.verify(public_key, crypto.ALGORITHM, b"m",
                                 crypto.sign(key, b"m"))


def test_digest_known_value_and_stability():
    empty = crypto.digest(b"")
    assert empty.hex() == ("e3b0c44298fc1c149afbf4c8996fb924"
                           "27ae41e4649b934ca495991b7852b855")
    assert crypto.digest(b"abc") == hashlib.sha256(b"abc").digest()
    assert crypto.digest(b"abc") != crypto.digest(b"abd")


def test_sign_verify_roundtrip_many_random_pairs():
    rng = random.Random(1234)
    for _ in range(1000):
        key = crypto.generate(seed=rng.randbytes(16))
        message = rng.randbytes(rng.randint(0, 64))
        assert crypto.verify(key.public_key, crypto.ALGORITHM, message,
                             crypto.sign(key, message))


def test_key_file_roundtrip():
    key = crypto.generate(seed=b"file")
    data = crypto.encode_key(key)
    assert crypto.decode_key(data) == key
    with pytest.raises(crypto.MalformedKey):
        crypto.decode_key(b"\x30\x03\x02\x01\x05")  # SEQUENCE {INTEGER 5}


def test_key_file_naming_another_algorithm_is_malformed():
    key = crypto.generate(seed=b"file")
    other = encode(Sequence([Oid("1.2.3.4"), OctetString(key.private_key)]))
    with pytest.raises(crypto.MalformedKey, match="1.2.3.4"):
        crypto.decode_key(other)
    short = encode(Sequence([crypto.ALGORITHM, OctetString(b"\x01" * 5)]))
    with pytest.raises(crypto.MalformedKey):
        crypto.decode_key(short)
