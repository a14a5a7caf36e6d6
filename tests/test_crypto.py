import hashlib
import random

import pytest

from savacert import crypto
from savacert.der import Oid


def test_seeded_generation_is_deterministic():
    a = crypto.generate(crypto.ED25519, seed=b"\x00" * 32)
    b = crypto.generate(crypto.ED25519, seed=b"\x00" * 32)
    assert a == b
    assert a.public_key != crypto.generate(crypto.ED25519, seed=b"x").public_key


def test_unseeded_generation_is_random():
    a = crypto.generate(crypto.ED25519)
    b = crypto.generate(crypto.ED25519)
    assert a.public_key != b.public_key


def test_unknown_algorithm_rejected():
    bogus = crypto.AlgorithmId(Oid("1.2.3.4"), "bogus")
    with pytest.raises(crypto.UnknownAlgorithm):
        crypto.generate(bogus)
    with pytest.raises(crypto.UnknownAlgorithm):
        crypto.verify(b"\x00" * 32, bogus, b"m", b"s")


def test_sign_verify_and_bit_flips():
    key = crypto.generate(crypto.ED25519, seed=b"signer")
    message = b"the quick brown fox"
    signature = crypto.sign(key, message)
    assert crypto.verify(key.public_key, crypto.ED25519, message, signature)
    flipped = bytearray(message)
    flipped[0] ^= 0x01
    assert not crypto.verify(key.public_key, crypto.ED25519,
                             bytes(flipped), signature)
    broken = bytearray(signature)
    broken[-1] ^= 0x80
    assert not crypto.verify(key.public_key, crypto.ED25519,
                             message, bytes(broken))
    other = crypto.generate(crypto.ED25519, seed=b"other")
    assert not crypto.verify(other.public_key, crypto.ED25519,
                             message, signature)


def test_malformed_public_key():
    key = crypto.generate(crypto.ED25519, seed=b"k")
    with pytest.raises(crypto.MalformedKey):
        crypto.verify(b"\x01\x02", crypto.ED25519, b"m",
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
        key = crypto.generate(crypto.ED25519, seed=rng.randbytes(16))
        message = rng.randbytes(rng.randint(0, 64))
        assert crypto.verify(key.public_key, crypto.ED25519, message,
                             crypto.sign(key, message))


def test_key_file_roundtrip():
    key = crypto.generate(crypto.ED25519, seed=b"file")
    data = crypto.encode_key(key)
    assert crypto.decode_key(data) == key
    with pytest.raises(crypto.MalformedKey):
        crypto.decode_key(b"\x30\x02\x05\x00")
