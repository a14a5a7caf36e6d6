import re
from functools import partial
from pathlib import Path

import pytest

from savacert import client as rp, config, forge, server as cvs
from savacert.config import ConfigError, parse_sections
from savacert.storage import parse_clock

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("reader, text", [
    (config.parse_bool, "ture"),
    (partial(config.parse_int, low=1), "0"),
    (config.parse_int, "two"),
    (config.parse_oid, "1"),
    (config.parse_oids, "1.2.3, 1.2.x"),
    (config.parse_name, "bogus"),
    (config.parse_timestamp, "2025"),
    (config.parse_timestamp, "20250231000000Z"),
    (parse_clock, "fixed"),
    (config.word_set({"chain": 1}), "chain, nonsense"),
    (config.one_of("crl", "online"), "onlien"),
    (config.parse_url, "not-a-url"),
    (config.parse_url, "ftp://host/x"),
    (config.parse_url, "http://host:port/x"),
    (config.parse_fingerprint, "zz"),
    (config.parse_fingerprint, "ab " * 21 + "a"),
], ids=["bool", "int-bound", "int-word", "oid", "oid-list", "name", "time",
        "time-impossible", "clock", "word-set", "one-of", "url", "url-scheme",
        "url-port", "fingerprint", "fingerprint-spaces"])
def test_every_reader_names_where_a_bad_value_came_from(reader, text):
    with pytest.raises(ConfigError, match=r"^\[s\] k: "):
        reader(text, where="[s] k")


def test_readers_read_good_values():
    assert config.parse_bool(" Yes ", where="k") is True
    assert config.parse_int("-7", where="k") == -7
    assert [str(o) for o in config.parse_oids("1.2.3, ,1.2.4", where="k")] \
        == ["1.2.3", "1.2.4"]
    assert config.list_of(config.parse_text, ";")("a ; b;", where="k") \
        == ("a", "b")
    assert config.word_set({"a": 1, "b": 2})("a,b,a", where="k") == {1, 2}
    assert config.parse_url("https://h:8450/x", where="k") == \
        "https://h:8450/x"
    assert config.parse_fingerprint("aB" * 32, where="k") == b"\xab" * 32


def test_read_keeps_order_and_rejects_unknown_keys():
    section, = parse_sections("[s]\nb = 2\na = 1\nb = 3\nusage web = x\n")
    readers = {"a": config.parse_int, "b": config.parse_int,
               "usage": config.parse_text}
    assert config.read(section, readers, "[s] ") == [
        ("b", 2), ("a", 1), ("b", 3), ("usage web", "x")]
    section, = parse_sections("[s]\nb extra = 1\n")
    with pytest.raises(ConfigError, match=r"^\[s\] unknown key 'b extra'$"):
        config.read(section, readers, "[s] ")


def _documented_keys(path: Path) -> dict:
    """Section name -> keys named in the file's code blocks, commented-out
    lines included."""
    keys: dict = {}
    section = None
    for line in path.read_text().splitlines():
        header = re.match(r"\[(\w+)", line)
        entry = re.match(r"#? ?(\w+)(?: \S+)? = ", line)
        if header:
            section = keys.setdefault(header.group(1), set())
        elif line.startswith(("```", "EOF")):
            section = None
        elif entry and section is not None:
            section.add(entry.group(1))
    return keys


def test_documented_keys_are_the_readers_tables():
    readme = _documented_keys(ROOT / "README.md")
    assert readme["server"] == set(cvs._SERVER_KEYS)
    assert readme["policy"] == set(cvs._POLICY_KEYS)
    assert readme["client"] == set(rp._PROFILE_KEYS)
    grammar = _documented_keys(ROOT / "docs" / "topology.md")
    assert grammar["pki"] == set(forge._PKI_KEYS)
    assert grammar["entity"] == set(forge._ENTITY_KEYS)
